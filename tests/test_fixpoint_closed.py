"""The fixpoint's answer is closed under the rules.

A default extension is a fixed point of its rules (Reiter 1980, *A Logic for
Default Reasoning*), and checking that an answer is closed is cheaper than
building it.  After ``process_document``, one more pass fires every binding
``rules.match`` gives on the result graph, in the config's rule order, with a
fresh ``EngineState``; under the extended config the expected-space closure
then runs again over every member.  The pass must create no node, and every
block it reports must already be in the trace under the same rule,
preconditions, cause, detail and space.

This checks closure of the answer alone, not equality with any earlier
engine, so it holds whatever path the fixpoint takes to get there.
"""

import random
from itertools import product

import pytest

from opine import Config, InputError, parse_document, process_document
from opine.rules import RULES, EngineState, _expected_space_closure, fire, match
from opine.spaces import space_index

from test_properties import deep_document, random_document, rule_orders

DOCUMENTS = 200  # the first documents of each fixed-seed suite


def closure_violations(result, cfg):
    """What one more pass over the result adds: the nodes it creates, and the
    blocks it reports that the trace does not hold."""
    g = result.graph
    logged = set(result.block_reports())  # fire appends to the trace
    before = len(g.nodes)
    state = EngineState()
    missing = []
    for name in cfg.rule_order:
        rule = RULES[name]
        for binding in match(rule, g):
            outcome = fire(rule, binding, g, cfg, state)
            missing += [block for block in outcome.blocks if block not in logged]
    if cfg.extended_belief_spaces:
        for inst in space_index(g).spaces.values():
            inst.closure_seen = 0  # visit every member again, not only new ones
        _expected_space_closure(g)
    return [n.structural_key() for n in g.nodes[before:]], missing


@pytest.fixture(scope="module")
def texts(corpus_files):
    random_rng, deep_rng = random.Random(20240214), random.Random(2)
    return ([path.read_text(encoding="utf-8") for path in corpus_files]
            + [random_document(random_rng) for _ in range(DOCUMENTS)]
            + [deep_document(deep_rng) for _ in range(DOCUMENTS)])


ORDERS = rule_orders(3)


@pytest.mark.parametrize("order", range(len(ORDERS)),
                         ids=["default"] + [f"shuffle{i}" for i in range(1, len(ORDERS))])
@pytest.mark.parametrize("fire_once,extended", list(product((True, False), (False, True))),
                         ids=["fire-once-default", "fire-once-extended",
                              "refire-default", "refire-extended"])
def test_the_answer_is_closed_under_the_rules(lexicon, texts, order, fire_once, extended):
    cfg = Config(rule_order=ORDERS[order], fire_once=fire_once,
                 extended_belief_spaces=extended)
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
