"""Semantic composition performed before inference.

Influencer chains (retainers/reversers ending in a gfbf event) collapse into a
single effective gfbf whose polarity flips once per reverser.  Evidence on the
chain's terminal event carries over to the new event, with intention and
substantiality flipped when the reverser count is odd.  The original chain
nodes stay in the graph for display but no rule matches them afterwards.
"""

from __future__ import annotations

from .annotations import Lexicon
from .errors import CyclicChain
from .graph import (
    BAD_FOR,
    GOOD_FOR,
    INFLUENCER,
    SENTIMENT,
    EvidenceFact,
    Graph,
    Node,
    TraceEvent,
    opposite_polarity,
)
from .records import Record


class InfluencerChain(Record):
    __slots__ = ()
    _fields = ("links", "terminal")

    def __new__(cls, links: list[Node], terminal: Node):
        # links: outermost influencer first; terminal: the gfbf the chain bottoms out in
        return tuple.__new__(cls, (links, terminal))

    @property
    def reversals(self) -> int:
        return sum(1 for link in self.links if link.property == "reverse")

    def effective_effect(self) -> str:
        effect = self.terminal.effect
        if self.reversals % 2:
            effect = GOOD_FOR if effect == BAD_FOR else BAD_FOR
        return effect


class CompositionResult:
    __slots__ = ("new_gfbfs", "new_evidence", "chains")

    def __init__(self, chains: list[InfluencerChain]):
        self.new_gfbfs: list[Node] = []
        self.new_evidence: list[EvidenceFact] = []
        self.chains = chains


def _find_chains(g: Graph) -> list[InfluencerChain]:
    influencers = [n for n in g.nodes if n.node_type == INFLUENCER]
    inner = {n.target.node_id for n in influencers if n.target.node_type == INFLUENCER}
    chains = []
    for outer in influencers:
        if outer.node_id in inner:
            continue
        links, seen = [], set()
        node = outer
        while node.node_type == INFLUENCER:
            if node.node_id in seen:
                raise CyclicChain(f"influencer chain loops at node {node.node_id}")
            seen.add(node.node_id)
            links.append(node)
            node = node.target
        chains.append(InfluencerChain(links=links, terminal=node))
    chains.sort(key=lambda c: c.links[0].node_id)
    return chains


def resolve_chains(g: Graph) -> CompositionResult:
    """Collapse every influencer chain into a new effective gfbf.

    The new event takes the outermost influencer's agent and occupies every
    position the outermost influencer held (each private state targeting it
    gets a counterpart targeting the new event).  Chain nodes are retired
    from rule matching.
    """
    result = CompositionResult(chains=_find_chains(g))
    for chain in result.chains:
        outer = chain.links[0]
        start = len(g.nodes)
        new_gfbf = g.gfbf(outer.agent, chain.effective_effect(), chain.terminal.object)
        new_gfbf.from_input = True
        result.new_gfbfs.append(new_gfbf)

        flip = chain.reversals % 2 == 1
        new_evidence = []
        for fact in list(g.evidence):
            target = fact.target
            wrapped = target.node_type == "ideaOf"
            event = target.idea_object if wrapped else target
            if event is not chain.terminal:
                continue
            fact.retired = True
            if fact.att_type == SENTIMENT:
                counterpart = g.add_evidence(
                    SENTIMENT, fact.polarity, g.idea_of(new_gfbf), holder=fact.holder,
                    from_input=True,
                )
            else:
                polarity = opposite_polarity(fact.polarity) if flip else fact.polarity
                counterpart = g.add_evidence(
                    fact.att_type, polarity, new_gfbf, holder=fact.holder,
                    property=fact.property, from_input=True,
                )
            new_evidence.append(counterpart)
        result.new_evidence.extend(new_evidence)

        # Rebuild every private-state chain that held the outermost influencer
        # so it holds the new event instead, roots included.
        mapping: dict[int, Node] = {outer.node_id: new_gfbf}
        changed = True
        while changed:
            changed = False
            for holder in list(g.nodes):
                if (
                    holder.node_type != "privateState"
                    or holder.node_id in mapping
                    or holder.target is None
                    or holder.target.node_id not in mapping
                ):
                    continue
                counterpart = g.private_state(
                    holder.source, holder.att_type, holder.polarity,
                    mapping[holder.target.node_id],
                    substantial=holder.property is not None,
                )
                counterpart.from_input = holder.from_input
                if holder.node_id in g.input_lines:
                    g.input_lines.setdefault(counterpart.node_id, g.input_lines[holder.node_id])
                mapping[holder.node_id] = counterpart
                if holder in g.roots:
                    g.add_root(counterpart)
                changed = True

        for node in chain.links:
            node.retired = True
        if chain.terminal is not new_gfbf:
            chain.terminal.retired = True
        g.trace.append(
            TraceEvent(
                kind="composition",
                rule="influencer-chain",
                iteration=0,
                preconditions=tuple([n.node_id for n in chain.links + [chain.terminal]]),
                created=tuple([n.node_id for n in g.nodes[start:]]
                              + [f.fact_id for f in new_evidence]),
            )
        )
    return result


def expand_extra_roles(g: Graph, lex: Lexicon) -> list[Node]:
    """Attach second-role derived relations from the gfbf lexicon.

    A lexicon entry like ``gfbf deprive badFor role2=goodFor`` states that the
    filler of the event's second role is goodFor the event's object; the
    derived relation is attached to the event and matches rules like any gfbf.
    """
    derived = []
    for event, filler_name in list(g.pending_role2):
        key = g.gfbf_lex_keys.get(event.node_id)
        entry = lex.gfbf_entries.get(key) if key else None
        if entry is None or entry.role2_effect is None:
            continue
        start = len(g.nodes)
        relation = g.gfbf(g.entity(filler_name), entry.role2_effect, event.object)
        relation.from_input = True
        g.attach_role2(event, relation)
        derived.append(relation)
        g.trace.append(
            TraceEvent(
                kind="composition",
                rule="extra-role",
                iteration=0,
                preconditions=(event.node_id,),
                created=tuple([n.node_id for n in g.nodes[start:]]),
            )
        )
    return derived


def run_composition(g: Graph) -> CompositionResult:
    result = resolve_chains(g)
    expand_extra_roles(g, g.lexicon)
    return result
