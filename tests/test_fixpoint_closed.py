"""The fixpoint's answer is closed under the rules.

A default extension is a fixed point of its rules (Reiter 1980, *A Logic for
Default Reasoning*), and checking that an answer is closed is cheaper than
building it.  After ``process_document``, one more pass fires every binding
``rules.match`` gives on the result graph, in the config's rule order, with a
fresh dict of what each binding reported; under the extended config the
expected-space closure then runs again over every member.  The pass must
create no node, place no node at the writer level or into a space, and
report only blocks the trace holds under the same rule, preconditions,
cause, detail and space.

This checks closure of the answer alone, not equality with any earlier
engine, so it holds whatever path the fixpoint takes to get there.
"""

import random

import pytest

from opine import Config, InputError, parse_document, process_document
from opine.rules import RULES, _expected_space_closure, fire, match, space_index

from test_properties import deep_document, random_document, rule_orders
from test_rules import BELIEVES_SHOULD_DOCUMENT

DOCUMENTS = 200  # the first documents of each fixed-seed suite

# deep_document no. 114 of seed 12.  rule3.1's first fire on S2 makes S2 a
# root, which changes that binding's own input stamp.  Only a stamp taken
# before the fire lets it fire again in the next pass, which makes S1 a root
# and so puts E1 into [writer -S carol -B]; without that, rule6 on E1 has a
# negative-belief-path block there that the trace does not hold.
OWN_SPACES_DOCUMENT = """"A deeper sentence."
E1 gfbf <dave, goodFor (x1), the storm:thing>
E2 gfbf <bob, goodFor (x2), alice>
E3 gfbf <the rock:thing, goodFor (x3), bob>
S0 subjectivity <carol, negative believesTrue (w), E1>
S1 subjectivity <writer, negative sentiment (w), S0>
S2 subjectivity <writer, positive sentiment (w), S1>
S3 subjectivity <alice, positive intends (w), E2>
S4 subjectivity <writer, positive sentiment (w), S2>
S5 subjectivity <bob, negative sentiment (w), E3>
B1 privateState <writer, positive sentiment (w), S3>
B2 privateState <writer, positive sentiment (w), S5>
P0 p(S0,substantial)
V1 evidence <none, negative intends (e), E2>
"""

# deep_document no. 162 of seed 2, under rule_orders(15)[13].  In pass 3
# rule4 derives writer +S dave from an agreement that is not writer-level
# yet, so places it only in the agreement's spaces.  Pass 4 creates no node,
# but rule3.1, after rule4 in this order, makes the agreement a top-level
# fact; only a pass after that lets rule4 place writer +S dave as a root.
PLACEMENT_DOCUMENT = """"A deeper sentence."
E1 gfbf <dave, goodFor (x1), carol>
S0 subjectivity <writer, positive believesTrue (w), E1>
S1 subjectivity <writer, positive sentiment (w), E1>
S2 subjectivity <alice, negative believesTrue (w), E1>
S3 subjectivity <carol, positive believesTrue (w), S1>
S4 subjectivity <carol, negative sentiment (w), S3>
S5 subjectivity <bob, positive believesTrue (w), S3>
B1 privateState <writer, negative sentiment (w), S2>
B2 privateState <writer, positive sentiment (w), S4>
B3 privateState <writer, negative sentiment (w), S5>
P0 p(S0,substantial)
V1 evidence <none, positive intends (e), E1>
"""
PLACEMENT_ORDER = ("rule7", "rule8", "rule3.2", "rule2", "rule3.3", "rule9", "rule10",
                   "rule4", "rule5source", "rule6", "rule5agent", "rule3.1", "rule1")


def placements(g):
    """The writer-level facts and the space memberships: what a pass that
    creates no node can still add to."""
    return len(g.writer_level), sum(map(len, space_index(g).memberships.values()))


def closure_violations(result, cfg):
    """What one more pass over the result adds: the nodes it creates, the
    blocks it reports that the trace does not hold, and the writer-level
    facts and memberships it places, as (before, after) when they grow."""
    g = result.graph
    logged = set(result.block_reports())  # fire appends to the trace
    before, placed = len(g.nodes), placements(g)
    reported = {}
    missing = []
    for name in cfg.rule_order:
        rule = RULES[name]
        for binding in match(rule, g):
            outcome = fire(rule, binding, g, cfg, reported)
            missing += [block for block in outcome.blocks if block not in logged]
    if cfg.extended_belief_spaces:
        _expected_space_closure(g)
    grown = [] if placements(g) == placed else [(placed, placements(g))]
    return [n.structural_key() for n in g.nodes[before:]], missing, grown


@pytest.fixture(scope="module")
def texts(corpus_files):
    random_rng, deep_rng = random.Random(20240214), random.Random(2)
    return ([path.read_text(encoding="utf-8") for path in corpus_files]
            + [random_document(random_rng) for _ in range(DOCUMENTS)]
            + [deep_document(deep_rng) for _ in range(DOCUMENTS)]
            + [OWN_SPACES_DOCUMENT, BELIEVES_SHOULD_DOCUMENT])


ORDERS = rule_orders(3)


@pytest.mark.parametrize("order", range(len(ORDERS)),
                         ids=["default"] + [f"shuffle{i}" for i in range(1, len(ORDERS))])
@pytest.mark.parametrize("extended", [False, True], ids=["refire-default", "refire-extended"])
def test_the_answer_is_closed_under_the_rules(lexicon, texts, order, extended):
    cfg = Config(rule_order=ORDERS[order], extended_belief_spaces=extended)
    runs = 0
    for text in texts:
        try:
            results = process_document(parse_document(text), lexicon, cfg)
        except InputError:
            continue
        for result in results:
            violations = closure_violations(result, cfg)
            assert violations == ([], [], []), (text, violations)
            runs += 1
    assert runs > 400


def test_a_pass_that_only_places_is_not_the_last(lexicon):
    cfg = Config(rule_order=PLACEMENT_ORDER)
    (result,) = process_document(parse_document(PLACEMENT_DOCUMENT), lexicon, cfg)
    assert closure_violations(result, cfg) == ([], [], [])
