"""Hash-consed directed node graph for one sentence.

Every node is interned by its structural signature, so re-deriving a fact
yields the node that already represents it.  Node ids are a display aid and
never identity; structurally equal nodes are the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .annotations import AnnotationLine, Lexicon, SentenceAnnotation, WRITER
from .errors import IllFormedNode

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
    __slots__ = (
        "node_id",
        "node_type",
        "att_type",
        "polarity",
        "property",
        "name",
        "anchor",
        "children",
        "from_input",
        "retired",
    )

    def __init__(self, node_id, node_type, *, att_type=None, polarity=None,
                 property=None, name=None, anchor=None, children=None):
        self.node_id = node_id
        self.node_type = node_type
        self.att_type = att_type
        self.polarity = polarity
        self.property = property
        self.name = name
        self.anchor = anchor
        self.children = children or {}
        self.from_input = False
        self.retired = False

    # -- structural accessors -------------------------------------------
    @property
    def source(self) -> Node | None:
        return self.children.get("source")

    @property
    def target(self) -> Node | None:
        return self.children.get("target")

    @property
    def agent(self) -> Node | None:
        return self.children.get("agent")

    @property
    def object(self) -> Node | None:
        return self.children.get("object")

    @property
    def with_whom(self) -> Node | None:
        return self.children.get("withWhom")

    @property
    def idea_object(self) -> Node | None:
        return self.children.get("ideaObject")

    @property
    def effect(self) -> str | None:
        if GOOD_FOR in self.children:
            return GOOD_FOR
        if BAD_FOR in self.children:
            return BAD_FOR
        return None

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
            if "role2" in self.children:
                parts.append(self.children["role2"].structural_key())
            return f"(gfbf {' '.join(parts)})"
        if t == IDEA_OF:
            return f"(ideaOf {self.idea_object.structural_key()})"
        if t == P_X:
            return f"(px {self.property} {self.children['x'].structural_key()})"
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


def structural_signature(node: Node) -> tuple:
    """Interning key: equal iff the nodes are structurally identical.

    node_id, from_input and the anchor text are excluded.  Children are
    already canonical, so their ids stand in for their structure.
    """
    return (
        node.node_type,
        node.att_type,
        node.polarity,
        node.property,
        node.name,
        tuple(sorted((label, child.node_id) for label, child in node.children.items())),
    )


def _spec_signature(node_type, att_type, polarity, property, name, children) -> tuple:
    return (
        node_type,
        att_type,
        polarity,
        property,
        name,
        tuple(sorted((label, child.node_id) for label, child in children.items())),
    )


@dataclass
class EvidenceFact:
    """Out-of-space blocker: an attitude the context rules out.

    Never a member of any private-state space; consulted when rules check
    their assumptions and conclusions.
    """

    fact_id: int
    att_type: str
    polarity: str
    target: Node
    holder: str | None = None
    property: str | None = None
    from_input: bool = False
    retired: bool = False


@dataclass
class BlockReport:
    rule: str
    binding: tuple[int, ...]
    cause: str  # evidence | space-contradiction | negative-belief-path | no-assumption-basis
    detail: str
    space: tuple | None = None


@dataclass
class TraceEvent:
    kind: str  # "fire" or "composition"
    rule: str
    iteration: int
    preconditions: list[int] = field(default_factory=list)
    assumptions: list[int] = field(default_factory=list)
    created: list[int] = field(default_factory=list)
    existing: list[int] = field(default_factory=list)
    blocks: list[BlockReport] = field(default_factory=list)


class IdAllocator:
    """Monotone id counter, shared across the sentences of one run."""

    def __init__(self, start: int = 1):
        self.next_id = start

    def take(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value


class Graph:
    def __init__(self, ids: IdAllocator | None = None, text: str = "",
                 lexicon: Lexicon | None = None):
        self.text = text
        self.ids = ids or IdAllocator()
        self.lexicon = lexicon or Lexicon()
        self.nodes: list[Node] = []
        self.nodes_by_type: dict[str, list[Node]] = {}  # the same nodes, split by type
        self.roots: list[Node] = []       # chain roots: writer sentiment/believesTrue
        self.top_level: list[Node] = []   # writer-level non-chain facts (agreements)
        self.evidence: list[EvidenceFact] = []
        self.trace: list[TraceEvent] = []
        self.entity_meta: dict[str, dict] = {}
        self.gfbf_lex_keys: dict[int, str] = {}
        self.pending_role2: list[tuple[Node, str]] = []
        self.input_lines: dict[int, AnnotationLine] = {}  # node id -> line it stands for
        self.version = 0
        self.layout_version = 0  # bumped when an existing node gains a child
        self._interned: dict[tuple, Node] = {}
        self._root_set: set[Node] = set()
        self._top_set: set[Node] = set()

    # -- interning -------------------------------------------------------
    def _intern(self, node_type, *, att_type=None, polarity=None, property=None,
                name=None, anchor=None, children=None) -> Node:
        children = children or {}
        key = _spec_signature(node_type, att_type, polarity, property, name, children)
        hit = self._interned.get(key)
        if hit is not None:
            return hit
        node = Node(
            self.ids.take(),
            node_type,
            att_type=att_type,
            polarity=polarity,
            property=property,
            name=name,
            anchor=anchor,
            children=children,
        )
        self._interned[key] = node
        self.nodes.append(node)
        self.nodes_by_type.setdefault(node_type, []).append(node)
        self.version += 1
        return node

    def lookup(self, node_type, *, att_type=None, polarity=None, property=None,
               name=None, children=None) -> Node | None:
        key = _spec_signature(node_type, att_type, polarity, property, name, children or {})
        return self._interned.get(key)

    # -- node constructors (validated) -----------------------------------
    def declare_entity(self, name: str, *, thing: bool = False, lex_key: str | None = None):
        meta = self.entity_meta.setdefault(name, {"thing": False, "lex_key": None})
        meta["thing"] = meta["thing"] or thing
        if lex_key:
            meta["lex_key"] = lex_key

    def entity(self, name: str, *, thing: bool | None = None) -> Node:
        if thing is not None:
            self.declare_entity(name, thing=thing)
        meta = self.entity_meta.setdefault(name, {"thing": False, "lex_key": None})
        return self._intern(THING if meta["thing"] else ANIM, name=name)

    def entity_lex_key(self, node: Node) -> str | None:
        meta = self.entity_meta.get(node.name)
        return meta["lex_key"] if meta else None

    def gfbf(self, agent: Node, effect: str, obj: Node, *, anchor=None) -> Node:
        if effect not in (GOOD_FOR, BAD_FOR):
            raise IllFormedNode(f"bad gfbf effect {effect!r}")
        if not agent.is_entity() or not obj.is_entity():
            raise IllFormedNode("gfbf agent and object must be entities")
        return self._intern(
            GFBF, anchor=anchor, children={"agent": agent, "object": obj, effect: obj}
        )

    def attach_role2(self, event: Node, derived: Node) -> Node:
        """Attach a second-role derived relation to a gfbf, re-keying the intern table."""
        if event.node_type != GFBF or derived.node_type != GFBF:
            raise IllFormedNode("role2 expansion applies to gfbf nodes")
        if "role2" in event.children:
            raise IllFormedNode("gfbf already carries a second-role relation")
        old_key = structural_signature(event)
        event.children["role2"] = derived
        new_key = structural_signature(event)
        if new_key in self._interned:
            raise IllFormedNode("second-role expansion collides with an existing node")
        del self._interned[old_key]
        self._interned[new_key] = event
        self.version += 1
        self.layout_version += 1
        return event

    def idea_of(self, event: Node) -> Node:
        if event.node_type != GFBF:
            raise IllFormedNode("ideaOf takes a gfbf")
        return self._intern(IDEA_OF, children={"ideaObject": event})

    def p_x(self, property: str, x: Node) -> Node:
        if property not in PX_PROPERTIES:
            raise IllFormedNode(f"bad p(x) property {property!r}")
        if x.node_type == INFLUENCER:
            raise IllFormedNode("p(x) cannot wrap an influencer")
        return self._intern(P_X, property=property, children={"x": x})

    def private_state(self, source, att_type: str, polarity: str, target: Node,
                      *, substantial: bool = False, anchor=None) -> Node:
        if isinstance(source, str):
            source = self.entity(source)
        if source.node_type != ANIM:
            raise IllFormedNode(f"private-state source must be animate: {source!r}")
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
            PRIVATE_STATE,
            att_type=att_type,
            polarity=polarity,
            property=SUBSTANTIAL if substantial else None,
            anchor=anchor,
            children={"source": source, "target": target},
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
        return self._intern(
            AGREEMENT,
            polarity=polarity,
            children={"source": source, "withWhom": with_whom, "target": target},
        )

    def influencer(self, agent: Node, kind: str, target: Node, *, anchor=None) -> Node:
        if kind not in ("retain", "reverse"):
            raise IllFormedNode(f"bad influencer kind {kind!r}")
        if target.node_type not in (GFBF, INFLUENCER):
            raise IllFormedNode("influencer target must be a gfbf or influencer")
        return self._intern(
            INFLUENCER, property=kind, anchor=anchor, children={"agent": agent, "target": target}
        )

    # -- roots and evidence ----------------------------------------------
    def add_root(self, node: Node) -> None:
        if not (node.is_chain_node() and node.source_name == WRITER):
            raise IllFormedNode(
                f"roots must be writer-sourced sentiment/believesTrue nodes: {node!r}"
            )
        if node not in self._root_set:
            self._root_set.add(node)
            self.roots.append(node)
            self.version += 1

    def add_top_level(self, node: Node) -> None:
        if node.source_name != WRITER:
            raise IllFormedNode("top-level facts must be the writer's")
        if node not in self._top_set:
            self._top_set.add(node)
            self.top_level.append(node)
            self.version += 1

    def is_writer_level(self, node: Node) -> bool:
        return node in self._root_set or node in self._top_set

    def add_evidence(self, att_type, polarity, target, *, holder=None,
                     property=None, from_input=False) -> EvidenceFact:
        fact = EvidenceFact(
            fact_id=self.ids.take(),
            att_type=att_type,
            polarity=polarity,
            target=target,
            holder=holder,
            property=property,
            from_input=from_input,
        )
        self.evidence.append(fact)
        self.version += 1
        return fact

    # -- invariants -------------------------------------------------------
    def assert_acyclic(self) -> None:
        seen: set[int] = set()
        stack: set[int] = set()

        def visit(node: Node) -> None:
            if node.node_id in seen:
                return
            if node.node_id in stack:
                raise IllFormedNode(f"cycle through node {node.node_id}")
            stack.add(node.node_id)
            for child in node.children.values():
                visit(child)
            stack.discard(node.node_id)
            seen.add(node.node_id)

        for node in self.nodes:
            visit(node)


# -- proposition specs (nodes not yet interned) ---------------------------

@dataclass(frozen=True)
class IdeaOfSpec:
    event: Node


@dataclass(frozen=True)
class PxSpec:
    property: str
    x: Node


@dataclass(frozen=True)
class PSSpec:
    source: str
    att_type: str
    polarity: str
    target: object  # Node | IdeaOfSpec | PxSpec
    substantial: bool = False


@dataclass(frozen=True)
class AgrSpec:
    source: str
    polarity: str
    with_whom: str
    px: PxSpec


def spec_matches(node: Node, spec) -> bool:
    """Structural comparison of an interned node against a spec (or node)."""
    if isinstance(spec, Node):
        return node is spec
    if isinstance(spec, IdeaOfSpec):
        return node.node_type == IDEA_OF and node.idea_object is spec.event
    if isinstance(spec, PxSpec):
        return (
            node.node_type == P_X
            and node.property == spec.property
            and node.children["x"] is spec.x
        )
    if isinstance(spec, PSSpec):
        return (
            node.node_type == PRIVATE_STATE
            and node.source_name == spec.source
            and node.att_type == spec.att_type
            and node.polarity == spec.polarity
            and node.property == (SUBSTANTIAL if spec.substantial else None)
            and spec_matches(node.target, spec.target)
        )
    if isinstance(spec, AgrSpec):
        return (
            node.node_type == AGREEMENT
            and node.source_name == spec.source
            and node.with_whom.name == spec.with_whom
            and node.polarity == spec.polarity
            and spec_matches(node.target, spec.px)
        )
    raise TypeError(spec)


def spec_intern(g: Graph, spec) -> Node:
    if isinstance(spec, Node):
        return spec
    if isinstance(spec, IdeaOfSpec):
        return g.idea_of(spec.event)
    if isinstance(spec, PxSpec):
        return g.p_x(spec.property, spec.x)
    if isinstance(spec, PSSpec):
        return g.private_state(
            spec.source,
            spec.att_type,
            spec.polarity,
            spec_intern(g, spec.target),
            substantial=spec.substantial,
        )
    if isinstance(spec, AgrSpec):
        return g.agreement(spec.source, spec.polarity, spec.with_whom, spec_intern(g, spec.px))
    raise TypeError(spec)


def spec_exists(g: Graph, spec) -> Node | None:
    """Return the interned node a spec describes, without creating anything."""
    if isinstance(spec, Node):
        return spec
    if isinstance(spec, IdeaOfSpec):
        return g.lookup(IDEA_OF, children={"ideaObject": spec.event})
    if isinstance(spec, PxSpec):
        return g.lookup(P_X, property=spec.property, children={"x": spec.x})
    if isinstance(spec, PSSpec):
        target = spec_exists(g, spec.target)
        if target is None:
            return None
        source = g.lookup(ANIM, name=spec.source)
        if source is None:
            return None
        return g.lookup(
            PRIVATE_STATE,
            att_type=spec.att_type,
            polarity=spec.polarity,
            property=SUBSTANTIAL if spec.substantial else None,
            children={"source": source, "target": target},
        )
    if isinstance(spec, AgrSpec):
        px = spec_exists(g, spec.px)
        source = g.lookup(ANIM, name=spec.source)
        with_whom = g.lookup(ANIM, name=spec.with_whom)
        if px is None or source is None or with_whom is None:
            return None
        return g.lookup(
            AGREEMENT,
            polarity=spec.polarity,
            children={"source": source, "withWhom": with_whom, "target": px},
        )
    raise TypeError(spec)


# -- building the input graph ----------------------------------------------

def build_input_graph(sent: SentenceAnnotation, lex: Lexicon,
                      ids: IdAllocator | None = None) -> Graph:
    """Build the graph for one validated sentence annotation.

    Every line becomes a node (entities interned on the way); ``prop`` lines
    fold into the believesTrue node they name; evidence lines become
    evidence facts, with sentiment-evidence targets wrapped in ideaOf.
    """
    g = Graph(ids=ids, text=sent.text, lexicon=lex)
    g.declare_entity(WRITER)
    for ln in sent.lines:
        for ref in (ln.source, ln.role2, ln.target if not isinstance(ln.target, str) else None):
            if ref is not None:
                g.declare_entity(ref.name, thing=ref.thing, lex_key=ref.lex_key)

    substantial_ids = {ln.target for ln in sent.lines if ln.kind == "prop"}
    by_id: dict[str, Node] = {}
    targeted: set[str] = set()

    def resolve(ln) -> Node:
        if isinstance(ln.target, str):
            targeted.add(ln.target)
            return by_id[ln.target]
        return g.entity(ln.target.name)

    for ln in sent.lines:
        if ln.kind == "prop":
            continue
        if ln.kind == "gfbf":
            node = g.gfbf(
                g.entity(ln.source.name), ln.attitude, resolve(ln),
                anchor=ln.anchor or None,
            )
            if ln.lex_key:
                if node.anchor is None:
                    node.anchor = ln.lex_key
                g.gfbf_lex_keys[node.node_id] = ln.lex_key
            if ln.role2 is not None:
                g.pending_role2.append((node, ln.role2.name))
        elif ln.kind == "influencer":
            node = g.influencer(
                g.entity(ln.source.name), ln.attitude, resolve(ln), anchor=ln.anchor or None
            )
        elif ln.kind in ("subjectivity", "privateState"):
            node = g.private_state(
                ln.source.name,
                ln.attitude,
                ln.polarity,
                resolve(ln),
                substantial=ln.line_id in substantial_ids,
                anchor=ln.anchor or None,
            )
        elif ln.kind == "evidence":
            target = resolve(ln)
            if target.node_type != GFBF:
                raise IllFormedNode(
                    f"evidence target must be a gfbf line: {ln.line_id}"
                )
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
                from_input=True,
            )
            continue
        else:  # pragma: no cover - parser enforces the kind set
            raise IllFormedNode(f"unknown line kind {ln.kind!r}")
        node.from_input = True
        for child in node.children.values():
            child.from_input = True
        by_id[ln.line_id] = node
        g.input_lines.setdefault(node.node_id, ln)

    for ln in sent.lines:
        if ln.kind in ("subjectivity", "privateState") and ln.line_id not in targeted:
            node = by_id[ln.line_id]
            if node.is_chain_node() and node.source_name == WRITER:
                g.add_root(node)
    g.assert_acyclic()
    return g
