"""The fixpoint's answer is closed under the rules.

A default extension is a fixed point of its rules (Reiter 1980, *A Logic for
Default Reasoning*), and checking that an answer is closed is cheaper than
building it.  After ``process_document``, one more pass fires every binding
``rules.match`` gives on the result graph, in the config's rule order, with a
fresh dict of what each binding reported; under the extended config the
expected-space closure then runs again over every member.  The pass must
create no node, and every block it reports must already be in the trace
under the same rule, preconditions, cause, detail and space.

This checks closure of the answer alone, not equality with any earlier
engine, so it holds whatever path the fixpoint takes to get there.
"""

import random

import pytest

from opine import Config, InputError, parse_document, process_document
from opine.rules import RULES, _expected_space_closure, fire, match

from test_properties import deep_document, random_document, rule_orders

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


def closure_violations(result, cfg):
    """What one more pass over the result adds: the nodes it creates, and the
    blocks it reports that the trace does not hold."""
    g = result.graph
    logged = set(result.block_reports())  # fire appends to the trace
    before = len(g.nodes)
    reported = {}
    missing = []
    for name in cfg.rule_order:
        rule = RULES[name]
        for binding in match(rule, g):
            outcome = fire(rule, binding, g, cfg, reported)
            missing += [block for block in outcome.blocks if block not in logged]
    if cfg.extended_belief_spaces:
        _expected_space_closure(g)
    return [n.structural_key() for n in g.nodes[before:]], missing


@pytest.fixture(scope="module")
def texts(corpus_files):
    random_rng, deep_rng = random.Random(20240214), random.Random(2)
    return ([path.read_text(encoding="utf-8") for path in corpus_files]
            + [random_document(random_rng) for _ in range(DOCUMENTS)]
            + [deep_document(deep_rng) for _ in range(DOCUMENTS)] + [OWN_SPACES_DOCUMENT])


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
            created, missing = closure_violations(result, cfg)
            assert not created and not missing, (text, created, missing)
            runs += 1
    assert runs > 400
