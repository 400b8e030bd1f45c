"""Semantic composition performed before inference.

Influencer chains (retainers/reversers ending in a gfbf event) collapse into a
single effective gfbf whose polarity flips once per reverser.  Evidence on the
chain's terminal event carries over to the new event, with intention and
substantiality flipped when the reverser count is odd.  The original chain
nodes stay in the graph for display but no rule matches them afterwards.

The graph is the only record of what composition did: the new nodes and
evidence facts, and one ``composition`` trace event per chain or second role
naming them.  Chains cannot loop, since a node's parts are interned before it.
For the same reason a private state's target has a smaller id than the state,
so one pass over the private states in id order reaches every holder of the
outermost influencer, nested ones included.
"""

from __future__ import annotations

from .errors import MalformedLine
from .graph import (
    BAD_FOR,
    GOOD_FOR,
    IDEA_OF,
    INFLUENCER,
    PRIVATE_STATE,
    SENTIMENT,
    Graph,
    Node,
    TraceEvent,
    opposite_polarity,
)


def resolve_chains(g: Graph) -> None:
    """Collapse every influencer chain into a new effective gfbf.

    The new event takes the outermost influencer's agent and occupies every
    position the outermost influencer held (each private state targeting it
    gets a counterpart targeting the new event).  Chain nodes are retired
    from rule matching.
    """
    influencers = [node for node in g.nodes if node.node_type == INFLUENCER]
    inner = {n.target for n in influencers}
    for outer in influencers:
        if outer in inner:
            continue
        links, terminal = [], outer
        while terminal.node_type == INFLUENCER:
            links.append(terminal)
            terminal = terminal.target
        flip = sum(link.property == "reverse" for link in links) % 2 == 1
        effect = terminal.effect
        if flip:
            effect = GOOD_FOR if effect == BAD_FOR else BAD_FOR
        start, known = len(g.nodes), len(g.evidence)
        new_gfbf = g.gfbf(outer.agent, effect, terminal.object)
        new_gfbf.from_input = True

        for fact in g.evidence[:known]:
            target = fact.target
            if (target.idea_object if target.node_type == IDEA_OF else target) is not terminal:
                continue
            fact.retired = True
            if fact.att_type == SENTIMENT:
                g.add_evidence(SENTIMENT, fact.polarity, g.idea_of(new_gfbf),
                               holder=fact.holder)
            else:
                polarity = opposite_polarity(fact.polarity) if flip else fact.polarity
                g.add_evidence(fact.att_type, polarity, new_gfbf, holder=fact.holder,
                               property=fact.property)

        # Rebuild every private-state chain that held the outermost influencer
        # so it holds the new event instead, roots included.
        mapping: dict[Node, Node] = {outer: new_gfbf}
        for holder in list(g.nodes):
            if holder.node_type != PRIVATE_STATE:
                continue
            target = mapping.get(holder.target)
            if target is None:
                continue
            counterpart = g.private_state(holder.source, holder.att_type, holder.polarity,
                                          target, substantial=holder.property is not None)
            counterpart.from_input = holder.from_input
            if holder.node_id in g.input_lines:
                g.input_lines.setdefault(counterpart.node_id, g.input_lines[holder.node_id])
            mapping[holder] = counterpart
            if holder in g.writer_level:
                g.add_root(counterpart)

        for node in links:
            node.retired = True
        if terminal is not new_gfbf:
            terminal.retired = True
        g.trace.append(
            TraceEvent(
                kind="composition",
                rule="influencer-chain",
                iteration=0,
                preconditions=tuple([n.node_id for n in links + [terminal]]),
                created=tuple([n.node_id for n in g.nodes[start:]]
                              + [f.fact_id for f in g.evidence[known:]]),
            )
        )


def expand_extra_roles(g: Graph, filename: str = "<input>") -> None:
    """Attach second-role derived relations from the graph's gfbf lexicon.

    A lexicon entry like ``gfbf deprive badFor role2=goodFor`` states that the
    filler of the event's second role is goodFor the event's object; the
    derived relation is attached to the event and matches rules like any gfbf.
    A line's second role reads that line's own ``(key:lexEntry)``, not that of
    another line restating its event.  Each attachment's ``extra-role`` trace
    event names the event and the nodes it created.  A line restating the
    event with another second role is a MalformedLine.
    """
    for event, ln in list(g.pending_role2):
        entry = g.lexicon.gfbf_entries.get(ln.lex_key)
        if entry is None or entry.role2_effect is None:
            continue
        start = len(g.nodes)
        relation = g.gfbf(g.entity(ln.role2.name), entry.role2_effect, event.object)
        if relation is event or relation is event.role2:  # nothing new
            continue
        if event.role2 is not None:
            raise MalformedLine(f"{ln.line_id}: restates its event with another second role",
                                filename, ln.lineno)
        relation.from_input = True
        g.attach_role2(event, relation)
        g.trace.append(
            TraceEvent(
                kind="composition",
                rule="extra-role",
                iteration=0,
                preconditions=(event.node_id,),
                created=tuple([n.node_id for n in g.nodes[start:]]),
            )
        )


def run_composition(g: Graph, filename: str = "<input>") -> None:
    resolve_chains(g)
    expand_extra_roles(g, filename)
