"""Hash-consed directed node graph for one sentence.

Every fact has one representation, its key: a ``Fact`` tuple of node type,
attitude type, polarity, property, label and parts.  The label is an
entity's name or a gfbf's effect.  The parts carry no labels; each node type
keeps them in a fixed order: gfbf (agent, object[, role2]), private state
(source, target), agreement (source, withWhom, target), ideaOf (ideaObject,),
p(x) (x,) and influencer (agent, target).  The graph interns each node under
its key, so re-deriving a fact yields the node that already represents it,
and a node's parts are nodes that hash by identity.  A node holds the key
it is interned under as its only structure and reads its parts from it;
``Graph.attach_role2`` re-keys a gfbf with a new key.  A fact not interned
yet may hold further such facts as parts: ``Graph.lookup`` finds its node
without creating anything, and ``Graph.intern`` creates the missing nodes
through the validated constructors.  Node ids are a display aid and never
identity; structurally equal nodes are the same object.
"""

from __future__ import annotations

from itertools import count

try:
    from _functools import partial
except ImportError:
    from functools import partial

from .annotations import AnnotationLine, Lexicon, SentenceAnnotation, WRITER
from .errors import IllFormedNode, InvariantViolation, MalformedLine
from .records import Record

ANIM = "anim"
THING = "thing"
GFBF = "gfbf"
IDEA_OF = "ideaOf"
P_X = "p_x"
AGREEMENT = "agreement"
PRIVATE_STATE = "privateState"
INFLUENCER = "influencer"

SENTIMENT = "sentiment"
BELIEVES_TRUE = "believesTrue"
INTENDS = "intends"
BELIEVES_SHOULD = "believesShould"

POSITIVE = "positive"
NEGATIVE = "negative"

GOOD_FOR = "goodFor"
BAD_FOR = "badFor"

SUBSTANTIAL = "substantial"
PX_PROPERTIES = ("isBad", "isGood", "isTrue", "isFalse", "should", "shouldNot")

CHAIN_ATTS = (BELIEVES_TRUE, SENTIMENT)
PROPOSITION_TYPES = (PRIVATE_STATE, AGREEMENT, P_X)


def sign(polarity: str) -> int:
    return 1 if polarity == POSITIVE else -1


def polarity_of(value: int) -> str:
    return POSITIVE if value > 0 else NEGATIVE


def opposite_polarity(polarity: str) -> str:
    return NEGATIVE if polarity == POSITIVE else POSITIVE


def effect_sign(effect: str) -> int:
    return 1 if effect == GOOD_FOR else -1


class Node:
    """One interned fact; ``key`` is the Fact the graph interns it under.

    The key is the node's only structure.  The accessors read its parts by
    position, in the node type's fixed order (the module docstring), and a
    gfbf's effect from the key's label; ``name`` is an entity's name only.
    The scalar slots copy the key's strings; ``source``, ``target`` and
    ``clash`` (``clash_key``) are set once, as attach_role2 only appends role2.
    """

    __slots__ = ("node_id", "node_type", "att_type", "polarity", "property", "name",
                 "anchor", "key", "source", "target", "clash", "from_input", "retired")

    def __init__(self, node_id, key: Fact, anchor=None):
        self.node_id = node_id
        t, self.att_type, self.polarity, self.property, label, parts = key
        self.node_type = t
        self.name = None if t == GFBF else label
        self.anchor = anchor
        self.key = key
        self.source = parts[0] if t in (PRIVATE_STATE, AGREEMENT) else None
        self.target = parts[-1] if t in (PRIVATE_STATE, AGREEMENT, INFLUENCER) else None
        self.clash = clash_key(key)
        self.from_input = False
        self.retired = False

    # -- structural accessors -------------------------------------------
    @property
    def agent(self) -> Node | None:
        return self.key.parts[0] if self.node_type in (GFBF, INFLUENCER) else None

    @property
    def object(self) -> Node | None:
        return self.key.parts[1] if self.node_type == GFBF else None

    @property
    def with_whom(self) -> Node | None:
        return self.key.parts[1] if self.node_type == AGREEMENT else None

    @property
    def idea_object(self) -> Node | None:
        return self.key.parts[0] if self.node_type == IDEA_OF else None

    @property
    def x(self) -> Node | None:
        return self.key.parts[0] if self.node_type == P_X else None

    @property
    def effect(self) -> str | None:
        return self.key.name if self.node_type == GFBF else None

    @property
    def role2(self) -> Node | None:
        """The second-role relation attach_role2 gave a gfbf, if any."""
        parts = self.key.parts
        return parts[2] if len(parts) == 3 and self.node_type == GFBF else None

    @property
    def source_name(self) -> str | None:
        src = self.source
        return src.name if src is not None else None

    def is_entity(self) -> bool:
        return self.node_type in (ANIM, THING)

    def is_proposition(self) -> bool:
        return self.node_type in PROPOSITION_TYPES

    def is_chain_node(self) -> bool:
        return self.node_type == PRIVATE_STATE and self.att_type in CHAIN_ATTS

    def structural_key(self) -> str:
        """Id-free s-expression describing the node's structure.

        Anchors, node ids and provenance are excluded, so two derivations of
        the same fact compare equal.
        """
        t = self.node_type
        if t in (ANIM, THING):
            return self.name
        if t == GFBF:
            parts = [self.agent.structural_key(), self.effect, self.object.structural_key()]
            if self.role2 is not None:
                parts.append(self.role2.structural_key())
            return f"(gfbf {' '.join(parts)})"
        if t == IDEA_OF:
            return f"(ideaOf {self.idea_object.structural_key()})"
        if t == P_X:
            return f"(px {self.property} {self.x.structural_key()})"
        if t == AGREEMENT:
            return (
                f"(agree {self.source.structural_key()} {self.with_whom.structural_key()}"
                f" {self.polarity} {self.target.structural_key()})"
            )
        if t == PRIVATE_STATE:
            prop = f" {self.property}" if self.property else ""
            return (
                f"(ps {self.source.structural_key()} {self.att_type} {self.polarity}{prop}"
                f" {self.target.structural_key()})"
            )
        if t == INFLUENCER:
            return f"(infl {self.agent.structural_key()} {self.property} {self.target.structural_key()})"
        raise ValueError(f"unknown node type {t!r}")

    def __repr__(self):
        return f"<Node {self.node_id} {self.structural_key()}>"


class Fact(Record):
    """A fact's structure: the hashable key its node is interned under.

    ``name`` is the fact's label: an entity's name or a gfbf's effect.
    ``parts`` holds the parts alone, in the node type's fixed order (the
    module docstring).  A part is an interned Node, which hashes by identity,
    or a Fact not interned yet.  A fact whose parts are all Nodes is exactly
    the intern table's key of the node it describes; node ids, anchors and
    provenance are not part of it, so two derivations of one fact meet in
    one node.
    """

    __slots__ = ()
    _fields = ("node_type", "att_type", "polarity", "property", "name", "parts")

    def __new__(cls, node_type: str, att_type: str | None, polarity: str | None,
                property: str | None, name: str | None, parts: tuple):
        return tuple.__new__(cls, (node_type, att_type, polarity, property, name, parts))

    @property
    def source(self):
        """The first part: the source of a private state or an agreement."""
        return self.parts[0]

    @property
    def target(self):
        """The last part: the target of a private state or an agreement."""
        return self.parts[-1]


_fact = partial(tuple.__new__, Fact)  # Fact(...) without the keyword handling


def clash_key(fact: Fact) -> tuple | None:
    """What two members of a space must share to clash; they clash when their
    polarities differ.

    The resolved fact (a node's key) of a private state or an agreement
    without its polarity and its property (substantial is deliberately not
    part of it); None for a fact nothing clashes with.
    """
    if fact.node_type in (PRIVATE_STATE, AGREEMENT):
        return (fact.node_type, fact.att_type, fact.parts)
    return None


def entity_fact(name: str) -> Fact:
    """An animate entity, by name."""
    return _fact((ANIM, None, None, None, name, ()))


def idea_of_fact(event) -> Fact:
    return _fact((IDEA_OF, None, None, None, None, (event,)))


def p_x_fact(property: str, x) -> Fact:
    return _fact((P_X, None, None, property, None, (x,)))


def ps_fact(source, att_type: str, polarity: str, target, *,
            substantial: bool = False) -> Fact:
    return _fact((PRIVATE_STATE, att_type, polarity, SUBSTANTIAL if substantial else None,
                  None, (source, target)))


def agreement_fact(source, polarity: str, with_whom, target) -> Fact:
    return _fact((AGREEMENT, None, polarity, None, None, (source, with_whom, target)))


class EvidenceFact:
    """Out-of-space blocker: an attitude the context rules out.

    Never a member of any private-state space; consulted when rules check
    their assumptions and conclusions.  Every evidence fact stands for an
    input line, directly or carried over by composition.
    """

    __slots__ = ("fact_id", "att_type", "polarity", "target", "holder", "property", "retired")

    def __init__(self, fact_id: int, att_type: str, polarity: str, target: Node,
                 holder: str | None = None, property: str | None = None):
        self.fact_id = fact_id
        self.att_type = att_type
        self.polarity = polarity
        self.target = target
        self.holder = holder
        self.property = property
        self.retired = False


class BlockReport(Record):
    __slots__ = ()
    _fields = ("rule", "binding", "cause", "detail", "space")

    def __new__(cls, rule: str, binding: tuple[int, ...],
                # evidence | space-contradiction | negative-belief-path | no-assumption-basis
                cause: str,
                detail: str, space: tuple | None = None):
        return tuple.__new__(cls, (rule, binding, cause, detail, space))


class TraceEvent:
    __slots__ = ("kind", "rule", "iteration", "preconditions", "assumptions", "created",
                 "existing", "blocks")

    def __init__(self, kind: str, rule: str, iteration: int,
                 preconditions: tuple[int, ...] = (),
                 assumptions: tuple[int, ...] = (),
                 created: tuple[int, ...] = (),
                 existing: tuple[int, ...] = (),
                 blocks: list[BlockReport] | None = None):
        self.kind = kind  # "fire" or "composition"
        self.rule = rule
        self.iteration = iteration
        # Ids in tuples: a tuple of ints is one object the cyclic collector
        # stops tracking, where a list stays tracked.
        self.preconditions = preconditions
        self.assumptions = assumptions
        self.created = created
        self.existing = existing
        self.blocks = [] if blocks is None else blocks


def IdAllocator():
    """Monotone id counter from 1, shared across the sentences of one run."""
    return count(1)


class Graph:
    def __init__(self, ids: count | None = None, text: str = "",
                 lexicon: Lexicon | None = None):
        self.text = text
        self.ids = ids or IdAllocator()
        self.lexicon = lexicon or Lexicon()
        self.nodes: list[Node] = []
        self.roots: list[Node] = []       # chain roots: writer sentiment/believesTrue
        self.top_level: list[Node] = []   # writer-level non-chain facts (agreements)
        self.evidence: list[EvidenceFact] = []
        self.trace: list[TraceEvent] = []
        self.things: set[str] = set()  # entity names marked :thing
        self.lex_keys: dict[str, str] = {}  # entity name -> its (key:lexEntry)
        self.pending_role2: list[tuple[Node, AnnotationLine]] = []  # gfbf, its line
        self.input_lines: dict[int, AnnotationLine] = {}  # node id -> line it stands for
        self.writer_level: set[Node] = set()  # the roots and the top-level facts
        self._space_index = None  # built once (spaces.space_index); add_root/add_top_level feed it
        self._interned: dict[Fact, Node] = {}

    # -- interning -------------------------------------------------------
    def _intern(self, key: Fact, anchor=None) -> Node:
        hit = self._interned.get(key)
        if hit is not None:
            return hit
        node = Node(next(self.ids), key, anchor)
        self._interned[key] = node
        self.nodes.append(node)
        return node

    def lookup(self, fact) -> Node | None:
        """The interned node a fact (or a node) describes, creating nothing.

        One dict get when every part is a Node; nested facts are resolved
        first otherwise.
        """
        if type(fact) is Node:
            return fact
        hit = self._interned.get(fact)
        if hit is None:
            for part in fact.parts:
                if type(part) is not Node:
                    resolved = self.resolve(fact)
                    return None if resolved is None else self._interned.get(resolved)
        return hit

    def resolve(self, fact: Fact) -> Fact | None:
        """The fact with every part a Node, or None when a part is not interned."""
        for part in fact.parts:
            if type(part) is not Node:
                break
        else:
            return fact
        parts = []
        for part in fact.parts:
            part = self.lookup(part)
            if part is None:
                return None
            parts.append(part)
        return _fact((*fact[:5], tuple(parts)))

    def intern(self, fact) -> Node:
        """Get or create the node a fact describes, parts first, in order.

        Creation goes through the validated constructors, so an ill-formed
        fact raises IllFormedNode.
        """
        node = self.lookup(fact)
        if node is not None:
            return node
        parts = [self.intern(part) for part in fact.parts]
        t = fact.node_type
        if t == ANIM:
            return self.entity(fact.name)
        if t == IDEA_OF:
            return self.idea_of(*parts)
        if t == P_X:
            return self.p_x(fact.property, *parts)
        if t == PRIVATE_STATE:
            source, target = parts
            return self.private_state(source, fact.att_type, fact.polarity, target,
                                      substantial=fact.property == SUBSTANTIAL)
        if t == AGREEMENT:
            return self.agreement(parts[0], fact.polarity, parts[1], parts[2])
        raise IllFormedNode(f"{t} facts are built from input lines only")

    # -- node constructors (validated) -----------------------------------
    def entity(self, name: str) -> Node:
        """The entity of that name: a thing when ``things`` holds the name."""
        t = THING if name in self.things else ANIM
        return self._intern(_fact((t, None, None, None, name, ())))

    def gfbf(self, agent: Node, effect: str, obj: Node, *, anchor=None) -> Node:
        if effect not in (GOOD_FOR, BAD_FOR):
            raise IllFormedNode(f"bad gfbf effect {effect!r}")
        if not agent.is_entity() or not obj.is_entity():
            raise IllFormedNode("gfbf agent and object must be entities")
        return self._intern(_fact((GFBF, None, None, None, effect, (agent, obj))), anchor)

    def attach_role2(self, event: Node, derived: Node) -> Node:
        """Attach a second-role derived relation to a gfbf, re-keying the intern table.

        Composition attaches every one before the space index is built; the
        index is never rebuilt, so it would miss one attached later."""
        if self._space_index is not None:
            raise InvariantViolation("a second role attached after the space index was built")
        if event.node_type != GFBF or derived.node_type != GFBF:
            raise IllFormedNode("role2 expansion applies to gfbf nodes")
        if event.role2 is not None:
            raise IllFormedNode("gfbf already carries a second-role relation")
        if derived is event:  # the event would be a part of its own key
            raise IllFormedNode("a gfbf cannot be its own second-role relation")
        old_key = event.key
        new_key = _fact((*old_key[:5], old_key.parts + (derived,)))
        if new_key in self._interned:
            raise IllFormedNode("second-role expansion collides with an existing node")
        del self._interned[old_key]
        self._interned[new_key] = event
        event.key = new_key
        return event

    def idea_of(self, event: Node) -> Node:
        if event.node_type != GFBF:
            raise IllFormedNode("ideaOf takes a gfbf")
        return self._intern(idea_of_fact(event))

    def p_x(self, property: str, x: Node) -> Node:
        if property not in PX_PROPERTIES:
            raise IllFormedNode(f"bad p(x) property {property!r}")
        if x.node_type == INFLUENCER:
            raise IllFormedNode("p(x) cannot wrap an influencer")
        return self._intern(p_x_fact(property, x))

    def private_state(self, source, att_type: str, polarity: str, target: Node,
                      *, substantial: bool = False, anchor=None) -> Node:
        if isinstance(source, str):
            source = self.entity(source)
        if source.node_type != ANIM:
            raise IllFormedNode(f"private-state source must be animate: {source.name}")
        if att_type not in (SENTIMENT, BELIEVES_TRUE, INTENDS, BELIEVES_SHOULD):
            raise IllFormedNode(f"bad attitude type {att_type!r}")
        if polarity not in (POSITIVE, NEGATIVE):
            raise IllFormedNode(f"bad polarity {polarity!r}")
        if att_type in (INTENDS, BELIEVES_SHOULD) and target.node_type != GFBF:
            raise IllFormedNode(f"{att_type} targets must be gfbf events")
        if substantial and att_type != BELIEVES_TRUE:
            raise IllFormedNode("substantial attaches to believesTrue only")
        if substantial and target.node_type != GFBF:
            raise IllFormedNode("substantial beliefs target gfbf events")
        return self._intern(
            ps_fact(source, att_type, polarity, target, substantial=substantial), anchor
        )

    def agreement(self, source, polarity: str, with_whom, target: Node) -> Node:
        if isinstance(source, str):
            source = self.entity(source)
        if isinstance(with_whom, str):
            with_whom = self.entity(with_whom)
        if target.node_type != P_X:
            raise IllFormedNode("agreement target must be a p(x)")
        if source.node_type != ANIM or with_whom.node_type != ANIM:
            raise IllFormedNode("agreement source and withWhom must be animate")
        return self._intern(agreement_fact(source, polarity, with_whom, target))

    def influencer(self, agent: Node, kind: str, target: Node, *, anchor=None) -> Node:
        if kind not in ("retain", "reverse"):
            raise IllFormedNode(f"bad influencer kind {kind!r}")
        if target.node_type not in (GFBF, INFLUENCER):
            raise IllFormedNode("influencer target must be a gfbf or influencer")
        return self._intern(_fact((INFLUENCER, None, None, kind, None, (agent, target))), anchor)

    # -- roots and evidence ----------------------------------------------
    def add_root(self, node: Node) -> None:
        if not (node.is_chain_node() and node.source_name == WRITER):
            raise IllFormedNode(
                f"roots must be writer-sourced sentiment/believesTrue nodes: {node!r}"
            )
        if node not in self.writer_level:
            self.writer_level.add(node)
            self.roots.append(node)
            if self._space_index is not None:
                self._space_index.add_root(node)

    def add_top_level(self, node: Node) -> None:
        if node.source_name != WRITER:
            raise IllFormedNode("top-level facts must be the writer's")
        if node not in self.writer_level:
            self.writer_level.add(node)
            self.top_level.append(node)
            if self._space_index is not None:
                self._space_index.add_top_level(node)

    def add_evidence(self, att_type, polarity, target, *, holder=None,
                     property=None) -> EvidenceFact:
        fact = EvidenceFact(
            fact_id=next(self.ids),
            att_type=att_type,
            polarity=polarity,
            target=target,
            holder=holder,
            property=property,
        )
        self.evidence.append(fact)
        return fact


# -- building the input graph ----------------------------------------------

def build_input_graph(sent: SentenceAnnotation, lex: Lexicon,
                      ids: count | None = None, filename: str = "<input>") -> Graph:
    """Build the graph for one validated sentence annotation.

    Every line becomes a node (entities interned on the way); ``prop`` lines
    fold into the believesTrue node they name; evidence lines become
    evidence facts, with sentiment-evidence targets wrapped in ideaOf.  A
    line the node constructors reject (an ill-typed source or target) is a
    MalformedLine there; a ``prop`` on a line that is not a believesTrue of
    a gfbf line is one at the ``prop`` line, and so is a line naming an
    entity with another (key:lexEntry) than an earlier line did.
    """
    g = Graph(ids=ids, text=sent.text, lexicon=lex)
    for ln in sent.lines:
        for ref in (ln.source, ln.role2, ln.target if not isinstance(ln.target, str) else None):
            if ref is not None:
                if ref.thing:
                    g.things.add(ref.name)
                if ref.lex_key:
                    key = g.lex_keys.setdefault(ref.name, ref.lex_key)
                    if key != ref.lex_key:  # rule10 would read one of the two
                        raise MalformedLine(
                            f"{ln.line_id}: {ref.name} is named with ({ref.lex_key}:lexEntry),"
                            f" but an earlier line named it with ({key}:lexEntry)",
                            filename, ln.lineno)

    substantial_ids = {ln.target for ln in sent.lines if ln.kind == "prop"}
    kinds = {ln.line_id: ln.kind for ln in sent.lines}
    by_id: dict[str, Node] = {}
    targeted: set[str] = set()

    def resolve(ln) -> Node:
        if isinstance(ln.target, str):
            targeted.add(ln.target)
            if ln.target not in by_id:
                raise IllFormedNode(f"{ln.target} is an evidence or prop line, not a node")
            return by_id[ln.target]
        return g.entity(ln.target.name)

    try:
        for ln in sent.lines:
            if ln.kind == "prop":
                if kinds[ln.target] not in ("subjectivity", "privateState"):
                    raise IllFormedNode(f"p({ln.target},substantial) names a line of kind"
                                        f" {kinds[ln.target]}, not a belief line")
                belief = by_id[ln.target]
                if belief.property is None:
                    raise IllFormedNode(f"p({ln.target},substantial) names a {belief.att_type}"
                                        f" on a {belief.target.node_type}, not a believesTrue"
                                        " on a gfbf line")
                continue
            if ln.kind == "gfbf":
                node = g.gfbf(
                    g.entity(ln.source.name), ln.attitude, resolve(ln),
                    anchor=ln.anchor or None,
                )
                if ln.lex_key and node.anchor is None:
                    node.anchor = ln.lex_key
                if ln.role2 is not None:
                    g.pending_role2.append((node, ln))
            elif ln.kind == "influencer":
                node = g.influencer(
                    g.entity(ln.source.name), ln.attitude, resolve(ln), anchor=ln.anchor or None
                )
            elif ln.kind in ("subjectivity", "privateState"):
                target = resolve(ln)
                node = g.private_state(
                    ln.source.name,
                    ln.attitude,
                    ln.polarity,
                    target,
                    # a prop on any other line is reported at the prop line
                    substantial=(ln.line_id in substantial_ids and ln.attitude == BELIEVES_TRUE
                                 and target.node_type == GFBF),
                    anchor=ln.anchor or None,
                )
            elif ln.kind == "evidence":
                target = resolve(ln)
                if target.node_type != GFBF:
                    raise IllFormedNode("evidence target must be a gfbf line")
                target.from_input = True
                if ln.attitude == SENTIMENT:
                    target = g.idea_of(target)
                    target.from_input = True
                g.add_evidence(
                    ln.attitude,
                    ln.polarity,
                    target,
                    holder=ln.source.name if ln.source else None,
                    property=SUBSTANTIAL if ln.attitude == BELIEVES_TRUE else None,
                )
                continue
            else:  # pragma: no cover - parser enforces the kind set
                raise IllFormedNode(f"unknown line kind {ln.kind!r}")
            node.from_input = True
            for child in node.key.parts:
                child.from_input = True
            by_id[ln.line_id] = node
            g.input_lines.setdefault(node.node_id, ln)
    except IllFormedNode as exc:  # ln is the line being built
        raise MalformedLine(f"{ln.line_id}: {exc}", filename, ln.lineno) from exc

    for ln in sent.lines:
        if ln.kind in ("subjectivity", "privateState") and ln.line_id not in targeted:
            node = by_id[ln.line_id]
            if node.is_chain_node() and node.source_name == WRITER:
                g.add_root(node)
    return g
