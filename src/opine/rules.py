"""The default inference rules and the control loop.

Rules have the shape  preconditions : assumptions / conclusions.  A rule fires
when its preconditions hold, every assumption has a basis, and no evidence
contradicts an assumption or conclusion; space extension then places the
assumptions and conclusions into every private-state space shared by the
preconditions.  Rules are applied in a fixed order, repeatedly, until an
entire pass adds no new node.

A matcher returns the bindings of one outer node, building each assumption
and conclusion as a ``graph.Fact`` over the nodes it matched; firing looks
the facts up and interns them.  Each rule declares the kind of its outer
node and of that node's target (``Rule``).  ``match`` runs a matcher over the
whole graph or over the nodes given, and is the unrouted reference.  The
fixpoint builds each binding once per run (``run_to_fixpoint``): a router
files each live node once, when it is added, under its route (node type,
attitude type, target's node type, target's attitude type; ``_Router``),
and each rule matches only the new nodes filed under its own route
(``_Bindings``).  The trace logs a fire only for what is new to its binding
(``_log``).
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
    the kind of its outer nodes: their node type and, when the rule fixes one,
    their attitude type; ``target`` is the (node type, attitude type) of the
    outer's target, or None for an outer with no target.  An outer of another
    kind has no binding.  A joining rule's ``join`` takes
    ``(live outer-type nodes, *live partner lists)`` to its outer pairs."""

    __slots__ = ()
    _fields = ("name", "matcher", "node_type", "att_type", "target", "join")

    def __new__(cls, name: str, matcher, node_type: str = PRIVATE_STATE,
                att_type: str | None = None, target: tuple | None = None, join=None):
        return tuple.__new__(cls, (name, matcher, node_type, att_type, target, join))


def _mul(p1: str, p2: str) -> str:
    return polarity_of(sign(p1) * sign(p2))


def _live(nodes, att_type=None):
    """The nodes rules match on: not retired, not over a retired target, and of
    the attitude type when one is given."""
    for node in nodes:
        if node.retired or (att_type is not None and node.att_type != att_type):
            continue
        target = node.target
        if target is not None and target.retired:
            continue
        yield node


def _live_of_type(g: Graph, node_type: str):
    """The live nodes of one type, in id order."""
    return _live([node for node in g.nodes if node.node_type == node_type])


# -- matchers ---------------------------------------------------------------
# A matcher returns the bindings of one outer node: the precondition, or the
# outer attitude of a nested one.  rule8's outer is a (belief, sentiment) pair.

def _rule8_pairs(beliefs, *sentiments):
    """Each positive belief in an event, paired with every sentiment of its
    source toward the event's object, in nested-loop order: a hash join on
    (source, object).  Each argument is a list of live private states in id
    order; only the beliefs and the sentiments among them take part."""
    beliefs = [b for b in beliefs if b.att_type == BELIEVES_TRUE and b.polarity == POSITIVE
               and b.target.node_type == GFBF]
    if not beliefs:
        return []
    by_key: dict[tuple[Node, Node], list[Node]] = {}
    for group in sentiments:
        for sent in group:
            if sent.att_type == SENTIMENT:
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
    if event.node_type != GFBF:
        return []
    q = ps_fact(sent.source, SENTIMENT, sent.polarity, idea_of_fact(event))
    return [Binding("rule1", [sent], [], [q])]


def _match_rule2(g: Graph, sent: Node):
    idea = sent.target
    if idea.node_type != IDEA_OF or idea.idea_object.retired:
        return []
    event = idea.idea_object
    q = ps_fact(
        sent.source,
        SENTIMENT,
        polarity_of(sign(sent.polarity) * effect_sign(event.effect)),
        event.object,
    )
    return [Binding("rule2", [sent], [], [q])]


def _match_rule31(g: Graph, outer: Node):
    inner = outer.target
    if inner.node_type != PRIVATE_STATE or inner.att_type != SENTIMENT:
        return []
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
    if (
        inner.node_type != PRIVATE_STATE
        or inner.att_type != BELIEVES_TRUE
        or inner.property != SUBSTANTIAL
    ):
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
    if inner.node_type != PRIVATE_STATE or inner.att_type != BELIEVES_SHOULD:
        return []
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
    if event.node_type != GFBF or intend.source is not event.agent:
        return []
    q = ps_fact(intend.source, SENTIMENT, POSITIVE, idea_of_fact(event))
    return [Binding("rule7", [intend], [], [q])]


def _match_rule9(g: Graph, sent: Node):
    event = sent.target
    if event.node_type != GFBF or event.agent.node_type != THING:
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
    if not outer.from_input or holder.node_type != ANIM:
        return []
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
    if not outer.from_input or agent.node_type != ANIM:
        return []
    bindings = []
    for event in _live_of_type(g, GFBF):
        if event.agent is not agent:
            continue
        q = ps_fact(outer.source, SENTIMENT, outer.polarity, event)
        bindings.append(Binding("rule5agent", [outer], [q], [q]))
    return bindings


RULES: dict[str, Rule] = {
    "rule8": Rule("rule8", _match_rule8, att_type=BELIEVES_TRUE, target=(GFBF, None),
                  join=_rule8_pairs),
    "rule1": Rule("rule1", _match_rule1, att_type=SENTIMENT, target=(GFBF, None)),
    "rule2": Rule("rule2", _match_rule2, att_type=SENTIMENT, target=(IDEA_OF, None)),
    "rule3.1": Rule("rule3.1", _match_rule31, att_type=SENTIMENT,
                    target=(PRIVATE_STATE, SENTIMENT)),
    "rule3.2": Rule("rule3.2", _match_rule32, att_type=SENTIMENT,
                    target=(PRIVATE_STATE, BELIEVES_TRUE)),
    "rule3.3": Rule("rule3.3", _match_rule33, att_type=SENTIMENT,
                    target=(PRIVATE_STATE, BELIEVES_SHOULD)),
    "rule4": Rule("rule4", _match_rule4, node_type=AGREEMENT, target=(P_X, None)),
    "rule6": Rule("rule6", _match_rule6, node_type=GFBF),
    "rule7": Rule("rule7", _match_rule7, att_type=INTENDS, target=(GFBF, None)),
    "rule9": Rule("rule9", _match_rule9, att_type=SENTIMENT, target=(GFBF, None)),
    "rule10": Rule("rule10", _match_rule10, node_type=GFBF),
    "rule5source": Rule("rule5source", _match_rule5source, att_type=SENTIMENT,
                        target=(ANIM, None)),
    "rule5agent": Rule("rule5agent", _match_rule5agent, att_type=SENTIMENT,
                       target=(ANIM, None)),
}

# The routes of the sentiments rule8 can pair: a gfbf's object is an entity.
_RULE8_SENTIMENTS = ((PRIVATE_STATE, SENTIMENT, ANIM, None),
                     (PRIVATE_STATE, SENTIMENT, THING, None))


def match(rule: Rule, g: Graph, nodes=None) -> list[Binding]:
    """Every binding of a rule, outer node by outer node, from the given nodes
    of its type (by default every one in the graph), whatever their route."""
    if nodes is None:
        nodes = [node for node in g.nodes if node.node_type == rule.node_type]
    if rule.join is None:
        outers = _live(nodes, rule.att_type)
    else:
        live = list(_live(nodes))
        outers = rule.join(live, live)
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
    """One fixpoint run's live nodes, each filed once, in id order, under its
    route: (node type, attitude type, target's node type, target's attitude
    type), the last two None for a node with no target.  A retired node, or
    one over a retired target, is skipped in the filing loop itself.  Inside
    the fixpoint no node is retired, so a node filed live stays live."""

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
                if node.retired:
                    continue
                target = node.target
                if target is None:
                    route = (node.node_type, node.att_type, None, None)
                elif target.retired:
                    continue
                else:
                    route = (node.node_type, node.att_type, target.node_type, target.att_type)
                group = filed.get(route)
                if group is None:
                    filed[route] = [node]
                else:
                    group.append(node)
            self.seen = len(nodes)
        return self.filed


class _Bindings:
    """One rule's bindings over one fixpoint run, each built once.

    Inside the fixpoint no node is retired, ``from_input`` and the layout do
    not move, and no gfbf is created, so the bindings of an outer node depend
    on that node alone.  ``current`` matches (``match``) only the nodes filed
    under the rule's route (``_Router``) since its last call and appends
    their bindings; a node of another route has none.  A route's nodes are
    filed in id order, as the graph lists them, so the bindings stay in the
    order ``match`` gives on the whole graph.  A joining rule (rule8) pairs its filed beliefs with the filed
    sentiments over an entity, two growing lists, so it is joined again on
    every call that follows an addition to either, each pair reusing the
    bindings built for it.  With nothing new filed for the rule, either kind
    returns its last list.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self.route = (rule.node_type, rule.att_type, *(rule.target or (None, None)))
        self.bindings: list[Binding] = []
        self.matched = 0  # filed nodes matched so far; a joining rule's list sizes
        self.by_pair: dict[tuple, list[Binding]] = {}

    def current(self, router: _Router) -> list[Binding]:
        rule = self.rule
        filed = router.update()
        nodes = filed.get(self.route, ())
        if rule.join is not None:
            sentiments = [filed.get(route, ()) for route in _RULE8_SENTIMENTS]
            sizes = (len(nodes), *[len(group) for group in sentiments])
            if sizes == self.matched:
                return self.bindings
            bindings = []
            for pair in rule.join(nodes, *sentiments):
                built = self.by_pair.get(pair)
                if built is None:
                    built = self.by_pair[pair] = rule.matcher(router.g, pair)
                bindings += built
            self.bindings = bindings
            self.matched = sizes
        elif len(nodes) != self.matched:
            self.bindings += match(rule, router.g, nodes[self.matched:])
            self.matched = len(nodes)
        return self.bindings


def run_to_fixpoint(g: Graph, cfg: Config | None = None) -> InferenceResult:
    """Apply the rules in order, pass after pass, until a pass adds no node.

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
        before = len(g.nodes)
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
        if len(g.nodes) == before:
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
    after any pass that creates a node.  A member the index already holds as
    placed in the variant (``SpaceIndex.placed_top``) is skipped before its
    check, as placing it would create nothing; inside the fixpoint clash
    tables only grow, so a member blocked once stays blocked.

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
