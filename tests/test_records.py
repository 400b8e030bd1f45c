"""The record types behave as the ``typing.NamedTuple`` classes they replace.

Each reference class below is the earlier ``NamedTuple`` definition, under
the same name, so reprs compare as they are.  Every record must agree with
its reference on construction (positional, keyword and every default), on
equality and hashing with the plain tuple, on every field, on the repr,
``_fields`` and ``_replace``, and on ``copy`` and pickling.
"""

import copy
import inspect
import pickle
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

from opine.annotations import AnnotationLine, EntityRef, GfbfEntry
from opine.graph import BlockReport, Fact
from opine.rules import DEFAULT_RULE_ORDER, Config, InferenceResult, Rule


class Reference:
    class EntityRef(NamedTuple):
        name: str
        thing: bool = False
        lex_key: str | None = None

    class AnnotationLine(NamedTuple):
        line_id: str
        kind: str
        source: EntityRef | None
        attitude: str
        polarity: str | None
        anchor: str
        lex_key: str | None
        target: EntityRef | str
        role2: EntityRef | None = None
        lineno: int = 0

    class GfbfEntry(NamedTuple):
        effect: str
        role2_effect: str | None = None

    class Fact(NamedTuple):
        node_type: str
        att_type: str | None
        polarity: str | None
        property: str | None
        name: str | None
        parts: tuple

    class BlockReport(NamedTuple):
        rule: str
        binding: tuple
        cause: str
        detail: str
        space: tuple | None = None

    class Config(NamedTuple):
        rule_order: tuple = DEFAULT_RULE_ORDER
        extended_belief_spaces: bool = False
        max_iterations: int = 50

    class Rule(NamedTuple):
        name: str
        matcher: Callable
        route: tuple
        join: Callable | None = None
        partners: tuple = ()

    class InferenceResult(NamedTuple):
        graph: object
        iterations: int


# Picklable values for every field, required ones first.
ARGS = {
    EntityRef: ("McCain", True, "attack"),
    AnnotationLine: ("E1", "gfbf", EntityRef("MoveOn"), "badFor", None, "attack", "attack",
                     EntityRef("McCain"), EntityRef("voters"), 3),
    GfbfEntry: ("badFor", "goodFor"),
    Fact: ("privateState", "sentiment", "negative", "substantial", None,
           ("writer", "E1")),
    BlockReport: ("rule1", (4, 7), "evidence", "line 3", (("writer", "sentiment", "negative"),)),
    Config: (("rule1", "rule2"), True, 7),
    Rule: ("rule8", len, ("privateState", "believesTrue", "gfbf", None), max,
           (("privateState", "sentiment", "anim", None),)),
    InferenceResult: ("graph", 2),
}
RECORDS = list(ARGS)


def reference(cls):
    return getattr(Reference, cls.__name__)


def required(cls):
    ref = reference(cls)
    return ARGS[cls][:len(ref._fields) - len(ref._field_defaults)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_matches_the_namedtuple(cls):
    ref = reference(cls)
    values = ARGS[cls]
    assert cls._fields == ref._fields
    shape = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    assert shape == [(p.name, p.kind, p.default)
                     for p in inspect.signature(ref).parameters.values()]
    for made, expected in [
        (cls(*values), ref(*values)),
        (cls(**dict(zip(cls._fields, values))), ref(*values)),
        (cls(*required(cls)), ref(*required(cls))),  # every default
    ]:
        assert type(made) is cls
        assert made == expected and tuple(made) == tuple(expected)
        assert hash(made) == hash(tuple(expected))
        assert repr(made) == repr(expected)
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_read_through_the_namedtuple_descriptor(cls):
    ref = reference(cls)
    made, expected = cls(*ARGS[cls]), ref(*ARGS[cls])
    for name in cls._fields:
        assert type(vars(cls)[name]) is type(vars(ref)[name])
        assert getattr(made, name) is getattr(expected, name)
        with pytest.raises(AttributeError):
            setattr(made, name, None)
    assert not hasattr(made, "__dict__")
    assert made[:] == ARGS[cls] and made < made + (None,)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_copy_and_pickle(cls):
    ref = reference(cls)
    made, expected = cls(*ARGS[cls]), ref(*ARGS[cls])
    first = cls._fields[0]
    replaced = made._replace(**{first: "changed"})
    assert type(replaced) is cls
    assert replaced == expected._replace(**{first: "changed"})
    assert made._replace() == made
    with pytest.raises(ValueError, match="unexpected field names"):
        made._replace(nonesuch=1)
    assert type(copy.copy(made)) is cls and copy.copy(made) == made
    assert type(copy.deepcopy(made)) is cls and copy.deepcopy(made) == made
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(made, protocol))
        assert type(loaded) is cls and loaded == made


def test_properties():
    fact = Fact(*ARGS[Fact])
    assert (fact.source, fact.target) == ("writer", "E1")
    block = BlockReport(*ARGS[BlockReport])
    graph = SimpleNamespace(trace=[SimpleNamespace(blocks=[block]), SimpleNamespace(blocks=[])])
    result = InferenceResult(graph, 1)
    assert result.trace is graph.trace and result.block_reports() == [block]
