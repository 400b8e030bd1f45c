"""The default inference rules and the control loop.

Rules have the shape  preconditions : assumptions / conclusions.  A rule fires
when its preconditions hold, every assumption has a basis, and no evidence
contradicts an assumption or conclusion; space extension then places the
assumptions and conclusions into every private-state space shared by the
preconditions.  Rules are applied in a fixed order, repeatedly, until an
entire pass adds no node and places no node at the writer level.

A matcher returns the bindings of one outer node, building each assumption
and conclusion as a ``graph.Fact`` over the nodes it matched; firing looks
the facts up and interns them.  Each rule declares the route of its outer
nodes once (``Rule.route``: node type, attitude type, target's node type,
target's attitude type, and True for input nodes alone), and its matcher
tests only what a route cannot express.  A router (``_Router``) is the one
route filter: it files each live node once, when it is added, under its
route.  ``match`` is the one place a matcher runs: on the outers it is
handed, or on every outer a fresh router files from the whole graph.  The
fixpoint builds each binding once per run (``run_to_fixpoint``): each rule
hands ``match`` only the new nodes filed under its own route, or the new
pairs of its join (``_Bindings``).  The trace logs a fire only for what is
new to its binding (``_log``).
"""

from __future__ import annotations

from .annotations import AnnotationDoc, Lexicon, SentenceAnnotation, WRITER
from .composition import run_composition
from .errors import (
    ContradictoryInput,
    InvariantViolation,
    IterationLimitExceeded,
    LexiconMismatch,
)
from .graph import (
    AGREEMENT,
    ANIM,
    BELIEVES_SHOULD,
    BELIEVES_TRUE,
    GFBF,
    IDEA_OF,
    INTENDS,
    NEGATIVE,
    P_X,
    POSITIVE,
    PRIVATE_STATE,
    SENTIMENT,
    SUBSTANTIAL,
    THING,
    BlockReport,
    EvidenceFact,
    Fact,
    Graph,
    IdAllocator,
    Node,
    TraceEvent,
    agreement_fact,
    build_input_graph,
    effect_sign,
    entity_fact,
    idea_of_fact,
    p_x_fact,
    polarity_of,
    ps_fact,
    sign,
)
from .records import Record
from .spaces import (
    extend_spaces,
    first_clash,
    format_space,
    place,
    space_index,
    would_contradict,
)

DEFAULT_RULE_ORDER = (
    "rule8",
    "rule1",
    "rule2",
    "rule3.1",
    "rule3.2",
    "rule3.3",
    "rule4",
    "rule6",
    "rule7",
    "rule9",
    "rule10",
    "rule5source",
    "rule5agent",
)

# Legal p(x) contents for the isGood/isBad judgements of rule3.1; events are
# coerced through ideaOf before they can be judged good or bad.
_JUDGEABLE = (ANIM, THING, IDEA_OF, AGREEMENT, PRIVATE_STATE)


class Config(Record):
    __slots__ = ()
    _fields = ("rule_order", "extended_belief_spaces", "max_iterations")

    def __new__(cls, rule_order: tuple[str, ...] = DEFAULT_RULE_ORDER,
                extended_belief_spaces: bool = False, max_iterations: int = 50):
        return tuple.__new__(cls, (rule_order, extended_belief_spaces, max_iterations))


class Binding:
    """One match of a rule: its preconditions (and their ids), assumptions and
    conclusions."""

    __slots__ = ("rule", "ps", "ids", "assumptions", "conclusions", "fire_key", "stamp")

    def __init__(self, rule: str, ps: list[Node], assumptions: list[Fact],
                 conclusions: list[Fact], fire_key: tuple = ()):
        self.rule = rule
        self.ps = ps
        self.ids = ids = tuple([p.node_id for p in ps])
        self.assumptions = assumptions
        self.conclusions = conclusions
        self.fire_key = fire_key or (rule, ids)
        # Fixpoint state (see run_to_fixpoint): the input stamp taken before
        # the last fire, or None when the binding must fire again.
        self.stamp = None


class Rule(Record):
    """A rule's matcher, ``(g, outer) -> the bindings of one outer node``, and
    the ``route`` of its outer nodes, under which ``_Router`` files them: a
    node's ``_route``, plus True for a rule that binds input nodes alone.
    The matcher is handed only nodes filed there, by ``match``.  A joining
    rule's ``join`` takes ``(nodes filed under the route, *nodes filed under
    each partner route)`` to its outer pairs, which the matcher is handed
    instead; it returns exactly one binding per pair."""

    __slots__ = ()
    _fields = ("name", "matcher", "route", "join", "partners")

    def __new__(cls, name: str, matcher, route: tuple, join=None, partners: tuple = ()):
        return tuple.__new__(cls, (name, matcher, route, join, partners))


def _mul(p1: str, p2: str) -> str:
    return polarity_of(sign(p1) * sign(p2))


def _live_of_type(g: Graph, node_type: str):
    """The live nodes of one type, in id order: those with a route."""
    for node in g.nodes:
        if node.node_type == node_type and _route(node) is not None:
            yield node


def _route(node: Node) -> tuple | None:
    """A node's route: (node type, attitude type, target's node type, target's
    attitude type), the last two None for a node with no target; None for a
    retired node or one over a retired target, which is not live: no rule
    matches it, and no assumption basis or rule5 partner is read from it."""
    if node.retired:
        return None
    target = node.target
    if target is None:
        return (node.node_type, node.att_type, None, None)
    if target.retired:
        return None
    return (node.node_type, node.att_type, target.node_type, target.att_type)


# -- matchers ---------------------------------------------------------------
# A matcher returns the bindings of one outer node: the precondition, or the
# outer attitude of a nested one.  rule8's outer is a (belief, sentiment) pair.

def _rule8_pairs(beliefs, *sentiments):
    """Each positive belief in an event, paired with every sentiment of its
    source toward the event's object, in nested-loop order: a hash join on
    (source, object).  The arguments are the live beliefs in events and the
    live sentiments toward each kind of entity, each list in id order."""
    beliefs = [b for b in beliefs if b.polarity == POSITIVE]
    if not beliefs:
        return []
    by_key: dict[tuple[Node, Node], list[Node]] = {}
    for group in sentiments:
        for sent in group:
            by_key.setdefault((sent.source, sent.target), []).append(sent)
    return [(belief, sent) for belief in beliefs
            for sent in by_key.get((belief.source, belief.target.object), ())]


def _match_rule8(g: Graph, pair):
    belief, sent = pair
    event = belief.target
    q = ps_fact(
        belief.source,
        SENTIMENT,
        polarity_of(sign(sent.polarity) * effect_sign(event.effect)),
        event,
    )
    return [Binding("rule8", [belief, sent], [], [q])]


def _match_rule1(g: Graph, sent: Node):
    event = sent.target
    q = ps_fact(sent.source, SENTIMENT, sent.polarity, idea_of_fact(event))
    return [Binding("rule1", [sent], [], [q])]


def _match_rule2(g: Graph, sent: Node):
    event = sent.target.idea_object
    if event.retired:
        return []
    q = ps_fact(
        sent.source,
        SENTIMENT,
        polarity_of(sign(sent.polarity) * effect_sign(event.effect)),
        event.object,
    )
    return [Binding("rule2", [sent], [], [q])]


def _match_rule31(g: Graph, outer: Node):
    inner = outer.target
    z = inner.target
    if z.retired or z.node_type not in _JUDGEABLE + (GFBF,):
        return []
    conclusions = []
    if z.node_type in _JUDGEABLE:
        judgement = "isGood" if inner.polarity == POSITIVE else "isBad"
        conclusions.append(
            agreement_fact(outer.source, outer.polarity, inner.source,
                           p_x_fact(judgement, z))
        )
    conclusions.append(
        ps_fact(outer.source, SENTIMENT, _mul(outer.polarity, inner.polarity), z)
    )
    return [Binding("rule3.1", [outer], [], conclusions)]


def _match_rule32(g: Graph, outer: Node):
    inner = outer.target
    if inner.property != SUBSTANTIAL:
        return []
    z = inner.target
    if z.retired:
        return []
    verdict = "isTrue" if inner.polarity == POSITIVE else "isFalse"
    conclusions = [
        agreement_fact(outer.source, outer.polarity, inner.source, p_x_fact(verdict, z)),
        ps_fact(outer.source, BELIEVES_TRUE, _mul(outer.polarity, inner.polarity),
                z, substantial=True),
    ]
    return [Binding("rule3.2", [outer], [], conclusions)]


def _match_rule33(g: Graph, outer: Node):
    inner = outer.target
    z = inner.target
    if z.retired:
        return []
    deontic = "should" if inner.polarity == POSITIVE else "shouldNot"
    conclusions = [
        agreement_fact(outer.source, outer.polarity, inner.source, p_x_fact(deontic, z)),
        ps_fact(outer.source, BELIEVES_SHOULD, _mul(outer.polarity, inner.polarity), z),
    ]
    return [Binding("rule3.3", [outer], [], conclusions)]


def _match_rule4(g: Graph, agr: Node):
    q = ps_fact(agr.source, SENTIMENT, agr.polarity, agr.with_whom)
    return [Binding("rule4", [agr], [], [q])]


def _match_rule6(g: Graph, event: Node):
    if event.agent.node_type != ANIM:
        return []
    q = ps_fact(event.agent, INTENDS, POSITIVE, event)
    return [Binding("rule6", [event], [], [q])]


def _match_rule7(g: Graph, intend: Node):
    if intend.polarity != POSITIVE:
        return []
    event = intend.target
    if intend.source is not event.agent:
        return []
    q = ps_fact(intend.source, SENTIMENT, POSITIVE, idea_of_fact(event))
    return [Binding("rule7", [intend], [], [q])]


def _match_rule9(g: Graph, sent: Node):
    event = sent.target
    if event.agent.node_type != THING:
        return []
    assumption = ps_fact(sent.source, BELIEVES_TRUE, POSITIVE, event, substantial=True)
    q = ps_fact(sent.source, SENTIMENT, sent.polarity, event.agent)
    return [Binding("rule9", [sent], [assumption], [q])]


def _match_rule10(g: Graph, event: Node):
    connotation = g.lexicon.connotation.get(g.lex_keys.get(event.object.name))
    if connotation is None:
        return []
    writer = entity_fact(WRITER)  # rule10 has no precondition holding the writer
    assumption = ps_fact(writer, BELIEVES_TRUE, POSITIVE, event)
    q = ps_fact(writer, SENTIMENT, connotation, event.object)
    return [Binding("rule10", [], [assumption], [q], fire_key=("rule10", event.node_id))]


def _match_rule5source(g: Graph, outer: Node):
    holder = outer.target
    bindings = []
    for inner in _live_of_type(g, PRIVATE_STATE):
        if not inner.from_input or inner is outer:
            continue
        if inner.source_name != holder.name:
            continue
        assumption = ps_fact(outer.source, BELIEVES_TRUE, POSITIVE, inner)
        q = ps_fact(outer.source, SENTIMENT, outer.polarity, inner)
        bindings.append(Binding("rule5source", [outer], [assumption], [q]))
    return bindings


def _match_rule5agent(g: Graph, outer: Node):
    agent = outer.target
    bindings = []
    for event in _live_of_type(g, GFBF):
        if event.agent is not agent:
            continue
        q = ps_fact(outer.source, SENTIMENT, outer.polarity, event)
        bindings.append(Binding("rule5agent", [outer], [q], [q]))
    return bindings


RULES: dict[str, Rule] = {
    # rule8 pairs a belief in an event with a sentiment toward its object,
    # which is an entity of either kind.
    "rule8": Rule("rule8", _match_rule8, (PRIVATE_STATE, BELIEVES_TRUE, GFBF, None),
                  join=_rule8_pairs,
                  partners=((PRIVATE_STATE, SENTIMENT, ANIM, None),
                            (PRIVATE_STATE, SENTIMENT, THING, None))),
    "rule1": Rule("rule1", _match_rule1, (PRIVATE_STATE, SENTIMENT, GFBF, None)),
    "rule2": Rule("rule2", _match_rule2, (PRIVATE_STATE, SENTIMENT, IDEA_OF, None)),
    "rule3.1": Rule("rule3.1", _match_rule31,
                    (PRIVATE_STATE, SENTIMENT, PRIVATE_STATE, SENTIMENT)),
    "rule3.2": Rule("rule3.2", _match_rule32,
                    (PRIVATE_STATE, SENTIMENT, PRIVATE_STATE, BELIEVES_TRUE)),
    "rule3.3": Rule("rule3.3", _match_rule33,
                    (PRIVATE_STATE, SENTIMENT, PRIVATE_STATE, BELIEVES_SHOULD)),
    "rule4": Rule("rule4", _match_rule4, (AGREEMENT, None, P_X, None)),
    "rule6": Rule("rule6", _match_rule6, (GFBF, None, None, None)),
    "rule7": Rule("rule7", _match_rule7, (PRIVATE_STATE, INTENDS, GFBF, None)),
    "rule9": Rule("rule9", _match_rule9, (PRIVATE_STATE, SENTIMENT, GFBF, None)),
    "rule10": Rule("rule10", _match_rule10, (GFBF, None, None, None)),
    # rule5 binds input lines alone: its route ends in True (``_Router``).
    "rule5source": Rule("rule5source", _match_rule5source,
                        (PRIVATE_STATE, SENTIMENT, ANIM, None, True)),
    "rule5agent": Rule("rule5agent", _match_rule5agent,
                       (PRIVATE_STATE, SENTIMENT, ANIM, None, True)),
}


def match(rule: Rule, g: Graph, outers=None) -> list[Binding]:
    """The bindings of the given outers, outer by outer: nodes filed under
    the rule's route, or a joining rule's pairs, taken as they are.  With
    none given, every outer in the graph: a fresh ``_Router`` files the whole
    graph, and a joining rule joins its routes there."""
    if outers is None:
        filed = _Router(g).update()
        outers = filed.get(rule.route, ())
        if rule.join is not None:
            outers = rule.join(outers, *[filed.get(route, ()) for route in rule.partners])
    return [b for outer in outers for b in rule.matcher(g, outer)]


# -- assumption bases and evidence blocking ----------------------------------

def assumption_basis(g: Graph, fact: Fact) -> Node | None:
    """The node licensing an assumed private state, or None.

    In order: the assumed attitude already exists; the writer positively
    believes the bare proposition (with any required property); or the source
    holds an attitude of a different type toward the same target, that
    attitude not being a negative believesTrue.  A substantial requirement is
    only met by the first two.
    """
    existing = g.lookup(fact)
    if existing is not None and not existing.retired:
        return existing
    target = g.lookup(fact.target)
    if target is None:
        return None
    substantial = fact.property == SUBSTANTIAL
    for root in g.roots:
        if (
            root.source_name == WRITER
            and root.att_type == BELIEVES_TRUE
            and root.polarity == POSITIVE
            and root.target is target
            and (not substantial or root.property == SUBSTANTIAL)
        ):
            return root
    if substantial:
        return None
    source = fact.source.name
    for node in _live_of_type(g, PRIVATE_STATE):
        if node.source_name != source or node.att_type == fact.att_type:
            continue
        if node.att_type == BELIEVES_TRUE and node.polarity == NEGATIVE:
            continue
        if node.target is target:
            return node
    return None


def blocked_by_evidence(g: Graph, fact: Fact) -> EvidenceFact | None:
    """The evidence fact ruling out an assumed or concluded private state, if any."""
    if fact.node_type != PRIVATE_STATE or not g.evidence:
        return None
    target = g.lookup(fact.target)
    for evidence in g.evidence:
        if evidence.retired or evidence.att_type != fact.att_type:
            continue
        if evidence.polarity == fact.polarity or evidence.property != fact.property:
            continue
        if evidence.holder is not None and evidence.holder != fact.source.name:
            continue
        if evidence.target is target:
            return evidence
    return None


# -- firing -------------------------------------------------------------------

def fire(rule: Rule, binding: Binding, g: Graph, cfg: Config, reported: dict,
         iteration: int = 0) -> TraceEvent:
    """Fire one binding; return its trace event, which ``_log`` logs or drops.

    ``reported`` maps a binding's fire key to the node ids and (cause, detail,
    space) blocks it has reported; one fixpoint run keeps one."""
    block = None  # a (space, cause, detail) found before space extension
    if g.evidence:
        for fact in (*binding.assumptions, *binding.conclusions):
            evidence = blocked_by_evidence(g, fact)
            if evidence is not None:
                block = (None, "evidence", f"evidence {evidence.fact_id}")
                break
    if block is None:
        for fact in binding.assumptions:
            if assumption_basis(g, fact) is None:
                block = (None, "no-assumption-basis", _describe_assumption(fact))
                break
    created = existing = assumed = ()
    if block is None:
        created, existing, blocks = extend_spaces(
            g, binding.ps, binding.assumptions, binding.conclusions,
            extended_belief_spaces=cfg.extended_belief_spaces)
        if binding.assumptions:
            assumed = tuple([n.node_id for n in map(g.lookup, binding.assumptions)
                             if n is not None])
    else:
        blocks = [block]
    ids = binding.ids
    reports = [BlockReport(rule.name, ids, cause, detail, space)
               for space, cause, detail in blocks] if blocks else []
    event = TraceEvent(
        "fire", rule.name, iteration, ids, assumed,
        tuple([n.node_id for n in created]), tuple([n.node_id for n in existing]), reports)
    _log(g, reported, binding, event)
    return event


def _describe_assumption(fact: Fact) -> str:
    prop = f" {fact.property}" if fact.property else ""
    return f"assume {fact.source.name} {fact.polarity} {fact.att_type}{prop}"


def _log(g: Graph, reported: dict, binding: Binding, event: TraceEvent) -> None:
    """Log a fire that created a node or reports what its binding has not:
    an existing node, or a block's (cause, detail, space)."""
    key = binding.fire_key
    seen = reported.get(key)
    if seen is None:
        seen = reported[key] = set()
    known = len(seen)
    seen.update(event.created)
    seen.update(event.existing)
    for block in event.blocks:
        seen.add(block[2:])
    if len(seen) != known:
        g.trace.append(event)


# -- control ------------------------------------------------------------------

class InferenceResult(Record):
    __slots__ = ()
    _fields = ("graph", "iterations")

    def __new__(cls, graph: Graph, iterations: int):
        return tuple.__new__(cls, (graph, iterations))

    @property
    def trace(self):
        return self.graph.trace

    def block_reports(self) -> list[BlockReport]:
        return [b for event in self.graph.trace for b in event.blocks]


# Blocks whose outcome can change while a binding's inputs stay the same: the
# clashing node reported can change, and an assumption basis can appear.
_UNSETTLED_CAUSES = ("space-contradiction", "no-assumption-basis")


def _input_stamp(memberships: dict, writer_level: set[Node], ps: list[Node]) -> int:
    """What a settled binding's next fire depends on that can still change.

    One int, the sum over the preconditions of the number of its spaces
    (memberships only grow, so a count tells) and whether it is writer-level
    (0 or 1).  Each term only grows, so the sum is unchanged exactly when
    every term is.  Evidence and the layout are fixed after composition.

    The order the fire visits its spaces in (their first roots) is left
    out.  A settled fire placed its additions into each of its candidate
    spaces but the negative-belief ones, which stay blocked; with the
    memberships unchanged the candidates are the same, so a fire in any
    order meets each addition where it is placed and places nothing new.
    """
    stamp = 0
    for p in ps:
        stamp += len(memberships.get(p.node_id, ())) + (p in writer_level)
    return stamp


class _Router:
    """A graph's live nodes, each filed once, in id order, under its route
    (``_route``), and an input node (``from_input``) under its route plus
    True too; a node with no route is not filed.  Inside the fixpoint no node
    is retired and ``from_input`` does not move (only ``build_input_graph``
    and composition set it), so a filed node stays where it was filed."""

    __slots__ = ("g", "filed", "seen")

    def __init__(self, g: Graph):
        self.g = g
        self.filed: dict[tuple, list[Node]] = {}
        self.seen = 0  # nodes of g.nodes filed so far

    def update(self) -> dict[tuple, list[Node]]:
        """File the nodes added since the last call; return the filed lists."""
        nodes = self.g.nodes
        if len(nodes) != self.seen:
            filed = self.filed
            for node in nodes[self.seen:]:
                route = _route(node)
                if route is None:
                    continue
                for key in (route, route + (True,)) if node.from_input else (route,):
                    group = filed.get(key)
                    if group is None:
                        filed[key] = [node]
                    else:
                        group.append(node)
            self.seen = len(nodes)
        return self.filed


class _Bindings:
    """One rule's bindings over one fixpoint run, each built once, by
    ``match``.

    Inside the fixpoint no node is retired, ``from_input`` and the layout do
    not move, and no gfbf is created, so the bindings of an outer node depend
    on that node alone.  ``current`` hands ``match`` only the nodes filed
    under ``rule.route`` (``_Router``) since its last call and appends their
    bindings.  A route's nodes are filed in id order, as the graph lists
    them, so the bindings stay in the order ``match`` gives on the whole
    graph.  A joining rule (rule8) pairs the nodes filed under its route with
    those filed under its partner routes, growing lists, so it is joined
    again on every call that follows an addition to any of them; ``match``
    is handed only the pairs not met before, and ``by_pair`` keeps each
    pair's one binding, so a pair is met again as the same binding.  With
    nothing new filed for the rule, either kind returns its last list.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self.bindings: list[Binding] = []
        self.matched = 0  # filed nodes matched so far; a joining rule's list sizes
        self.by_pair: dict[tuple, Binding] = {}

    def current(self, router: _Router) -> list[Binding]:
        rule = self.rule
        filed = router.update()
        nodes = filed.get(rule.route, ())
        if rule.join is not None:
            partners = [filed.get(route, ()) for route in rule.partners]
            sizes = (len(nodes), *[len(group) for group in partners])
            if sizes != self.matched:
                pairs = rule.join(nodes, *partners)
                by_pair = self.by_pair
                new = [pair for pair in pairs if pair not in by_pair]
                by_pair.update(zip(new, match(rule, router.g, new)))
                self.bindings = [by_pair[pair] for pair in pairs]
                self.matched = sizes
        elif len(nodes) != self.matched:
            self.bindings += match(rule, router.g, nodes[self.matched:])
            self.matched = len(nodes)
        return self.bindings


def run_to_fixpoint(g: Graph, cfg: Config | None = None) -> InferenceResult:
    """Apply the rules in order, pass after pass, until a pass adds no node
    and places no node at the writer level.  A pass that only makes existing
    nodes roots or top-level facts changes the input stamps of the bindings
    over them; inside the fixpoint both only grow, and memberships grow only
    with roots, so the size of ``g.writer_level`` tells.

    At each rule's turn the loop walks the bindings ``match`` would return,
    in its order, but builds each binding once per run, from the nodes
    routed to the rule (``_Bindings``).  A binding is fired, or skipped while
    nothing its fire depends on changed.

    Each binding keeps the input stamp taken before its last fire
    (``_input_stamp``), or None after a fire reporting an unsettled block.
    The stamp reads the index's memberships and the writer-level set, each
    fetched once per run, not once per binding.
    The stamp is taken before the fire because a fire can make an existing
    chain node a root, and so change its own preconditions' spaces.  Every
    placement is checked against the index as it stands (``extend_spaces``),
    so no space ever holds both polarities of a member, and an addition
    already placed in a space never clashes there.  Stamps only grow, so
    while a binding's stamp is unchanged its candidate spaces are too, and a
    fire would place nothing new, in whatever order it visits them: it would
    meet its additions where it placed them, which the index records
    (``SpaceIndex.placed_top``) so that they are neither checked nor placed
    again, and report the nodes and blocks it reported before, which ``_log``
    does not log again.
    """
    cfg = cfg or Config()
    reported: dict[tuple, set] = {}
    rules = [RULES[name] for name in cfg.rule_order]
    matched = {rule.name: _Bindings(rule) for rule in rules}
    router = _Router(g)
    # The stamp's inputs, fetched once per run: the graph keeps its index.
    memberships, writer_level = space_index(g).memberships, g.writer_level
    iterations = 0
    for iteration in range(1, cfg.max_iterations + 1):
        iterations = iteration
        before = (len(g.nodes), len(writer_level))
        for rule in rules:
            for binding in matched[rule.name].current(router):
                stamp = _input_stamp(memberships, writer_level, binding.ps)
                if binding.stamp == stamp:
                    continue
                event = fire(rule, binding, g, cfg, reported, iteration)
                unsettled = any([b.cause in _UNSETTLED_CAUSES for b in event.blocks])
                binding.stamp = None if unsettled else stamp
        if cfg.extended_belief_spaces:
            _expected_space_closure(g)
        if before == (len(g.nodes), len(writer_level)):
            break
    else:
        raise IterationLimitExceeded(
            f"no fixpoint after {cfg.max_iterations} iterations"
        )
    check_consistency(g)
    return InferenceResult(graph=g, iterations=iterations)


def _expected_space_closure(g: Graph) -> None:
    """Optional closure: every member of a sentiment-bearing space is also
    believed, i.e. placed into the space's positive-belief variant.

    A call visits every member once, in one pass.  A member its own
    placements add waits for the next call, which ``run_to_fixpoint`` makes
    after any pass that creates a node or a writer-level fact.  A member the
    index already holds as placed in the variant (``SpaceIndex.placed_top``)
    is skipped before its check, as placing it would create nothing; inside
    the fixpoint clash tables only grow, so a member blocked once stays
    blocked.

    Unlike a fire, the closure also places into the variant of a space whose
    steps hold a negative believesTrue, and such a variant keeps that step:
    ``extend_spaces`` reports a space on such a path as
    ``negative-belief-path`` and places nothing there or in its variant.
    """
    # Snapshot the members: placing below adds to the (live) index.
    index = space_index(g)
    snapshot = [(inst.variant, inst.paths[0], list(inst.members.values()))
                for inst in index.spaces.values() if inst.variant is not None]
    for variant, chain, members in snapshot:
        for member in members:
            if member.retired or index.placed_top(member, variant) is not None:
                continue
            if would_contradict(variant, member, g, index) is not None:
                continue
            place(g, member, variant, chain)


def check_consistency(g: Graph) -> None:
    """No space may hold the same source/attitude/target with both polarities."""
    clash = first_clash(g)
    if clash is not None:
        steps, positive, negative = clash
        raise InvariantViolation(
            f"space {format_space(steps)} holds contradictory attitudes: "
            f"nodes {positive.node_id} and {negative.node_id}"
        )


# -- pipeline -----------------------------------------------------------------

def check_input(g: Graph, filename: str = "<input>") -> None:
    """Reject input whose own lines put opposite attitudes into one space.

    Hash-consing makes structurally equal events one node, and influencer
    chains can compose into an event that already exists, so two lines can
    give one source both polarities toward the same target.
    """
    clash = first_clash(g)
    if clash is None:
        return
    steps, *nodes = clash
    first, second = sorted((g.input_lines[n.node_id] for n in nodes),
                           key=lambda ln: ln.lineno)
    raise ContradictoryInput(
        f"{first.line_id} contradicts {second.line_id} ({filename}:{second.lineno})"
        f" in space {format_space(steps)}",
        filename, first.lineno,
    )


def check_lexicon(sent: SentenceAnnotation, lex: Lexicon, filename: str = "<input>") -> None:
    """Reject an influencer line whose (key:lexEntry) is an infl record of the
    other kind, and a gfbf line whose key is a gfbf record of the other effect."""
    for ln in sent.lines:
        if ln.kind == "influencer":
            kind = lex.influencers.get(ln.lex_key)
        elif ln.kind == "gfbf":
            entry = lex.gfbf_entries.get(ln.lex_key)
            kind = None if entry is None else entry.effect
        else:
            continue
        if kind is not None and kind != ln.attitude:
            raise LexiconMismatch(
                f"{ln.line_id} is a {ln.attitude} {ln.kind} but lexicon entry"
                f" {ln.lex_key!r} is {kind}",
                filename, ln.lineno,
            )


def process_sentence(sent: SentenceAnnotation, lex: Lexicon, ids=None,
                     cfg: Config | None = None,
                     filename: str = "<input>") -> InferenceResult:
    check_lexicon(sent, lex, filename)
    g = build_input_graph(sent, lex, ids, filename)
    run_composition(g, filename)
    check_input(g, filename)
    return run_to_fixpoint(g, cfg)


def process_document(doc: AnnotationDoc, lex: Lexicon,
                     cfg: Config | None = None) -> list[InferenceResult]:
    ids = IdAllocator()
    return [process_sentence(sent, lex, ids, cfg, doc.source_name) for sent in doc.sentences]
