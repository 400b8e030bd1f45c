"""The default inference rules and the control loop.

Rules have the shape  preconditions : assumptions / conclusions.  A rule fires
when its preconditions hold, every assumption has a basis, and no evidence
contradicts an assumption or conclusion; space extension then places the
assumptions and conclusions into every private-state space shared by the
preconditions.  Rules are applied in a fixed order, repeatedly, until an
entire pass adds no new node.

A matcher returns the bindings of one outer node, building each assumption
and conclusion as a ``graph.Fact`` over the nodes it matched; firing looks
the facts up and interns them.  ``match`` runs a matcher over the whole
graph or over the nodes given; the fixpoint builds each binding once per run,
matching only the nodes a pass added (``run_to_fixpoint``).  The trace logs a
fire only for what is new to its binding (``_log``).
"""

from __future__ import annotations

from itertools import islice

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
    POSITIVE,
    PRIVATE_STATE,
    SENTIMENT,
    SUBSTANTIAL,
    THING,
    BlockReport,
    EvidenceFact,
    Fact,
    FireOutcome,
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
    _fields = ("rule_order", "fire_once", "extended_belief_spaces", "max_iterations")

    def __new__(cls, rule_order: tuple[str, ...] = DEFAULT_RULE_ORDER, fire_once: bool = True,
                extended_belief_spaces: bool = False, max_iterations: int = 50):
        return tuple.__new__(cls, (rule_order, fire_once, extended_belief_spaces,
                                   max_iterations))


class Binding:
    """One match of a rule: its preconditions, assumptions and conclusions."""

    __slots__ = ("rule", "ps", "assumptions", "conclusions", "fire_key", "stamp")

    def __init__(self, rule: str, ps: list[Node], assumptions: list[Fact],
                 conclusions: list[Fact], fire_key: tuple = ()):
        self.rule = rule
        self.ps = ps
        self.assumptions = assumptions
        self.conclusions = conclusions
        self.fire_key = fire_key or (rule, tuple(p.node_id for p in ps))
        # Fixpoint state (see run_to_fixpoint): the input stamp taken before
        # the last fire, or None when the binding must fire again.
        self.stamp = None


class Rule(Record):
    """A rule's matcher, ``(g, outer) -> the bindings of one outer node``, and
    the type of its outer nodes: their node type and, when the rule fixes one,
    their attitude type.  A joining rule's ``join`` takes ``(g, live outer-type
    nodes)`` to its outer pairs."""

    __slots__ = ()
    _fields = ("name", "matcher", "node_type", "att_type", "fire_once", "join")

    def __new__(cls, name: str, matcher, node_type: str = PRIVATE_STATE,
                att_type: str | None = None, fire_once: bool = False, join=None):
        return tuple.__new__(cls, (name, matcher, node_type, att_type, fire_once, join))


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


def _live_private_states(g: Graph, att_type=None):
    return _live(g.nodes_by_type.get(PRIVATE_STATE, ()), att_type)


# -- matchers ---------------------------------------------------------------
# A matcher returns the bindings of one outer node: the precondition, or the
# outer attitude of a nested one.  rule8's outer is a (belief, sentiment) pair.

def _rule8_pairs(g: Graph, beliefs):
    """Each positive belief in an event, paired with every sentiment of its
    source toward the event's object, in nested-loop order: a hash join on
    (source, object)."""
    sentiments: dict[tuple[Node, Node], list[Node]] = {}
    for sent in _live_private_states(g, SENTIMENT):
        sentiments.setdefault((sent.source, sent.target), []).append(sent)
    for belief in beliefs:
        event = belief.target
        if belief.polarity == POSITIVE and event.node_type == GFBF:
            for sent in sentiments.get((belief.source, event.object), ()):
                yield belief, sent


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
    if not event.from_input:
        return []
    key = g.entity_lex_key(event.object)
    connotation = g.lexicon.connotation.get(key) if key else None
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
    for inner in _live_private_states(g):
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
    for event in _live(g.nodes_by_type.get(GFBF, ())):
        if not event.from_input or event.agent is not agent:
            continue
        q = ps_fact(outer.source, SENTIMENT, outer.polarity, event)
        bindings.append(Binding("rule5agent", [outer], [q], [q]))
    return bindings


RULES: dict[str, Rule] = {
    "rule8": Rule("rule8", _match_rule8, att_type=BELIEVES_TRUE, join=_rule8_pairs),
    "rule1": Rule("rule1", _match_rule1, att_type=SENTIMENT),
    "rule2": Rule("rule2", _match_rule2, att_type=SENTIMENT),
    "rule3.1": Rule("rule3.1", _match_rule31, att_type=SENTIMENT),
    "rule3.2": Rule("rule3.2", _match_rule32, att_type=SENTIMENT),
    "rule3.3": Rule("rule3.3", _match_rule33, att_type=SENTIMENT),
    "rule4": Rule("rule4", _match_rule4, node_type=AGREEMENT),
    "rule6": Rule("rule6", _match_rule6, node_type=GFBF),
    "rule7": Rule("rule7", _match_rule7, att_type=INTENDS),
    "rule9": Rule("rule9", _match_rule9, att_type=SENTIMENT),
    "rule10": Rule("rule10", _match_rule10, node_type=GFBF),
    "rule5source": Rule("rule5source", _match_rule5source, att_type=SENTIMENT, fire_once=True),
    "rule5agent": Rule("rule5agent", _match_rule5agent, att_type=SENTIMENT, fire_once=True),
}


def _outers(rule: Rule, g: Graph, nodes):
    """The outer nodes (or pairs) a rule matches from, among nodes of its type."""
    live = _live(nodes, rule.att_type)
    return live if rule.join is None else rule.join(g, live)


def match(rule: Rule, g: Graph, nodes=None) -> list[Binding]:
    """Every binding of a rule, outer node by outer node, from the given nodes
    of its type (by default every one in the graph)."""
    if nodes is None:
        nodes = g.nodes_by_type.get(rule.node_type, ())
    return [b for outer in _outers(rule, g, nodes) for b in rule.matcher(g, outer)]


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
    for node in _live_private_states(g):
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

class EngineState:
    def __init__(self):
        self.consumed: set[tuple] = set()
        # fire_key -> the nodes and (cause, detail, space) blocks it reported
        self.reported: dict[tuple, set] = {}


def fire(rule: Rule, binding: Binding, g: Graph, cfg: Config,
         state: EngineState | None = None, iteration: int = 0) -> FireOutcome:
    state = state or EngineState()
    block = None  # a (space, cause, detail) found before space extension
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
    if block is None:
        outcome = extend_spaces(g, binding.ps, binding.assumptions, binding.conclusions,
                                extended_belief_spaces=cfg.extended_belief_spaces)
        assumed = [g.lookup(fact) for fact in binding.assumptions]
        outcome.assumptions = [n for n in assumed if n is not None]
    else:
        outcome = FireOutcome(False, blocks=[block])
    if outcome.blocks:
        binding_ids = tuple([p.node_id for p in binding.ps])
        outcome.blocks = [BlockReport(rule.name, binding_ids, cause, detail, space)
                          for space, cause, detail in outcome.blocks]
    _log(g, state, rule, binding, iteration, outcome)
    return outcome


def _describe_assumption(fact: Fact) -> str:
    prop = f" {fact.property}" if fact.property else ""
    return f"assume {fact.source.name} {fact.polarity} {fact.att_type}{prop}"


def _log(g: Graph, state: EngineState, rule: Rule, binding: Binding,
         iteration: int, outcome: FireOutcome) -> None:
    """Log a fire that created a node or reports what its binding has not:
    an existing node, or a block's (cause, detail, space)."""
    reported = state.reported.setdefault(binding.fire_key, set())
    known = len(reported)
    reported.update(outcome.created)
    reported.update(outcome.existing)
    blocks = outcome.blocks
    for block in blocks:
        reported.add(block[2:])
    if len(reported) == known:
        return
    g.trace.append(
        TraceEvent("fire", rule.name, iteration, tuple([p.node_id for p in binding.ps]),
                   tuple([n.node_id for n in outcome.assumptions]),
                   tuple([n.node_id for n in outcome.created]),
                   tuple([n.node_id for n in outcome.existing]), blocks)
    )


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


def _input_stamp(g: Graph, ps: list[Node]) -> int:
    """What a settled binding's next fire depends on that can still change.

    One int, the sum of: the order of the spaces (first_root moves) and, for
    each precondition, the number of its spaces (memberships only grow, so a
    count tells) and whether it is writer-level (0 or 1).  Each term only
    grows, so the sum is unchanged exactly when every term is.  Evidence and
    the layout are fixed after composition.
    """
    index = space_index(g)
    memberships = index.memberships
    stamp = index.first_root_moves
    for p in ps:
        stamp += len(memberships.get(p.node_id, ())) + g.is_writer_level(p)
    return stamp


class _Bindings:
    """One rule's bindings over one fixpoint run, each built once.

    Inside the fixpoint no node is retired, ``from_input`` and the layout do
    not move, and no gfbf is created, so the bindings of an outer node depend
    on that node alone.  ``current`` matches (``match``) only the nodes of the
    rule's type added since its last call and appends their bindings, which
    keeps the list in the order ``match`` gives on the whole graph.  A
    joining rule (rule8) pairs two growing sets of nodes of its type, so it
    is re-matched on every call that follows an addition, each pair reusing
    the bindings built for it.  With no node of
    the rule's type added, either kind returns its last list.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self.bindings: list[Binding] = []
        self.matched = 0  # nodes of the rule's type matched so far
        self.by_pair: dict[tuple, list[Binding]] = {}

    def current(self, g: Graph) -> list[Binding]:
        rule = self.rule
        nodes = g.nodes_by_type.get(rule.node_type, ())
        if len(nodes) == self.matched:
            return self.bindings
        if rule.join is not None:
            bindings = []
            for pair in _outers(rule, g, nodes):
                built = self.by_pair.get(pair)
                if built is None:
                    built = self.by_pair[pair] = rule.matcher(g, pair)
                bindings += built
            self.bindings = bindings
        else:
            self.bindings += match(rule, g, nodes[self.matched:])
        self.matched = len(nodes)
        return self.bindings


def run_to_fixpoint(g: Graph, cfg: Config | None = None) -> InferenceResult:
    """Apply the rules in order, pass after pass, until a pass adds no node.

    At each rule's turn the loop walks the bindings ``match`` would return,
    in its order, but builds each binding once per run (``_Bindings``).  A
    binding is fired, or skipped while nothing its fire depends on changed.

    Each binding keeps the input stamp taken before its last fire
    (``_input_stamp``), or None after a fire reporting an unsettled block.
    The stamp is taken before the fire because a fire can make an existing
    chain node a root, and so change its own preconditions' spaces.  Every
    placement is checked against the index as it stands (``extend_spaces``),
    so no space ever holds both polarities of a member, and an addition
    already placed in a space never clashes there.  Stamps only grow, so
    while a binding's stamp is unchanged its candidate spaces and their order
    are too, and a fire would place nothing new: it would meet its additions
    where it placed them, which the index records (``SpaceIndex.placed_top``)
    so that they are neither checked nor placed again, and report the nodes
    and blocks it reported before, which ``_log`` does not log again.
    """
    cfg = cfg or Config()
    state = EngineState()
    rules = [RULES[name] for name in cfg.rule_order]
    matched = {rule.name: _Bindings(rule) for rule in rules}
    iterations = 0
    for iteration in range(1, cfg.max_iterations + 1):
        iterations = iteration
        before = len(g.nodes)
        for rule in rules:
            once = rule.fire_once and cfg.fire_once
            for binding in matched[rule.name].current(g):
                if once and binding.fire_key in state.consumed:
                    continue
                stamp = _input_stamp(g, binding.ps)
                if binding.stamp == stamp:
                    continue
                outcome = fire(rule, binding, g, cfg, state, iteration)
                if outcome.fired and once:
                    state.consumed.add(binding.fire_key)
                unsettled = any([b.cause in _UNSETTLED_CAUSES for b in outcome.blocks])
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

    Semi-naive: each sentiment-bearing space's ``closure_seen`` counts the
    members already visited, and a call visits only the members after it, in
    one pass.  A member its own placements add waits for the next call, which
    ``run_to_fixpoint`` makes after any pass that creates a node.
    Inside the fixpoint no member is retired and the layout does not move,
    while chains and clash tables only grow, so a visited member's outcome
    stays what it was: skipped, blocked, or placed (placing again creates
    nothing).  A rebuilt index starts from zero again.  A member the index
    already holds as placed in the variant (``SpaceIndex.placed_top``) is
    skipped before its check, as placing it would create nothing.
    """
    # Snapshot the new members: placing below adds to the (live) index.
    index = space_index(g)
    snapshot = []
    for inst in index.spaces.values():
        if inst.variant is not None and len(inst.members) > inst.closure_seen:
            new = list(islice(inst.members.values(), inst.closure_seen, None))
            snapshot.append((inst.variant, inst.paths[0], new))
            inst.closure_seen = len(inst.members)
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
    """Reject an influencer line whose (key:lexEntry) is an infl record of the other kind."""
    for ln in sent.lines:
        kind = lex.influencers.get(ln.lex_key) if ln.kind == "influencer" else None
        if kind is not None and kind != ln.attitude:
            raise LexiconMismatch(
                f"{ln.line_id} is a {ln.attitude} influencer but lexicon entry"
                f" {ln.lex_key!r} is {kind}",
                filename, ln.lineno,
            )


def process_sentence(sent: SentenceAnnotation, lex: Lexicon,
                     ids: IdAllocator | None = None,
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
