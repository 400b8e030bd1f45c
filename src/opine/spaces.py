"""Private-state spaces: membership, extension, and in-space blocking.

A space is named by the step list of a chain of sentiment/believesTrue nodes
rooted at the writer: each step is (source, attitude type, polarity).  A node
is in a space when it is the target of the rightmost node of a chain carrying
those steps.  Two chains with the same step list are the same space.
"""

from __future__ import annotations

from .errors import NoCommonSpace
from .graph import (
    AGREEMENT,
    BELIEVES_TRUE,
    CHAIN_ATTS,
    NEGATIVE,
    POSITIVE,
    PRIVATE_STATE,
    SENTIMENT,
    WRITER,
    Graph,
    Node,
    entity_fact,
    opposite_polarity,
    ps_fact,
)

Step = tuple[str, str, str]  # (source name, attitude type, polarity)
EPSILON: tuple[Step, ...] = ()


def step_of(node: Node) -> Step:
    return (node.source_name, node.att_type, node.polarity)


ClashKey = tuple  # (node type, attitude type, (label, node) pairs)


def clash_key(node: Node) -> ClashKey | None:
    """What two members must share to clash; they clash when polarities differ.

    It is the node's fact key without the polarity and the property
    (substantial is deliberately not part of it).
    """
    if node.node_type in (PRIVATE_STATE, AGREEMENT):
        return (node.node_type, node.att_type, tuple(node.children.items()))
    return None


def _add_to_table(table: dict[ClashKey, dict[str, Node]], node: Node) -> None:
    key = clash_key(node)
    if key is not None:
        table.setdefault(key, {}).setdefault(node.polarity, node)


class SpaceInstance:
    __slots__ = ("steps", "paths", "members", "clash", "first_root", "closure_seen")

    def __init__(self, steps: tuple[Step, ...]):
        self.steps = steps
        self.paths: list[tuple[Node, ...]] = []  # chain node sequences
        self.members: dict[int, Node] = {}  # by node id, in insertion order
        self.clash: dict[ClashKey, dict[str, Node]] = {}  # {polarity: first}
        self.first_root = 0  # smallest root id among the paths
        self.closure_seen = 0  # members the expected-space closure has visited

    def add_path(self, path: tuple[Node, ...]) -> bool:
        """Add a chain; True when it moves the first_root of a known space."""
        self.paths.append(path)
        root_id = path[0].node_id
        if len(self.paths) == 1:
            self.first_root = root_id
        elif root_id < self.first_root:
            self.first_root = root_id
            return True
        return False

    def add_member(self, member: Node) -> None:
        if member.node_id not in self.members:
            self.members[member.node_id] = member
            _add_to_table(self.clash, member)


class SpaceIndex:
    """All chains of the graph, grouped by step list, plus clash tables.

    The index is append-only.  Nodes are hash-consed and never change, so a
    chain below a root is fixed once the root exists: only ``Graph.add_root``
    adds chains, and ``update`` walks just the roots (and top-level facts)
    added since the last call.  ``Graph.attach_role2`` changes a node that
    may already be a member, so it drops the graph's cached index and
    ``space_index`` then builds a new one from scratch.

    Each space has one clash table of its members; the writer level's
    (EPSILON) holds the roots and the top-level facts.  Their keys do not
    meet, since a root is a writer chain node and a top-level fact is not.
    ``first_root_moves`` counts the times a known space's first_root went
    down, which changes the order ``extend_spaces`` visits spaces in.
    """

    def __init__(self, g: Graph):
        self.spaces: dict[tuple[Step, ...], SpaceInstance] = {}
        self.memberships: dict[int, dict[tuple[Step, ...], tuple[Node, ...]]] = {}
        self.writer_clash: dict[ClashKey, dict[str, Node]] = {}
        self.roots_seen = 0
        self.top_seen = 0
        self.first_root_moves = 0
        self.update(g)

    def update(self, g: Graph) -> None:
        """Add the chains of the roots and the top-level facts added since the last call."""
        if len(g.roots) > self.roots_seen:
            for root in g.roots[self.roots_seen:]:
                _add_to_table(self.writer_clash, root)
                self._add_chains(root)
            self.roots_seen = len(g.roots)
        if len(g.top_level) > self.top_seen:
            for node in g.top_level[self.top_seen:]:
                _add_to_table(self.writer_clash, node)
            self.top_seen = len(g.top_level)

    def _add_chains(self, root: Node) -> None:
        path: tuple[Node, ...] = ()
        steps: tuple[Step, ...] = EPSILON
        node = root
        while node is not None and node.is_chain_node():
            path += (node,)
            steps += (step_of(node),)
            member = node.target
            inst = self.spaces.get(steps)
            if inst is None:
                inst = self.spaces[steps] = SpaceInstance(steps)
            if inst.add_path(path):
                self.first_root_moves += 1
            self._add_member(inst, member, path)
            if member.node_type == "gfbf" and "role2" in member.children:
                self._add_member(inst, member.children["role2"], path)
            node = member

    def _add_member(self, inst: SpaceInstance, member: Node, path: tuple[Node, ...]) -> None:
        inst.add_member(member)
        self.memberships.setdefault(member.node_id, {}).setdefault(inst.steps, path)

    def clash_table(self, steps: tuple[Step, ...]) -> dict | None:
        """The clash table of a space's members, or None for an unknown space."""
        if steps == EPSILON:
            return self.writer_clash
        inst = self.spaces.get(steps)
        return inst.clash if inst else None


def space_index(g: Graph) -> SpaceIndex:
    index = g._space_index
    if index is None:
        index = g._space_index = SpaceIndex(g)
    else:
        index.update(g)
    return index


def spaces_of(node: Node, g: Graph) -> set[tuple[Step, ...]]:
    """Spaces containing the node.  A root defines spaces but is in none."""
    return set(space_index(g).memberships.get(node.node_id, ()))


def rightmost_nodes(steps: tuple[Step, ...], index: SpaceIndex) -> list[Node]:
    inst = index.spaces.get(steps)
    if inst is None:
        return []
    return [path[-1] for path in inst.paths]


def placement_spaces(node: Node, g: Graph, index: SpaceIndex) -> set[tuple[Step, ...]]:
    """Spaces a precondition counts as occupying, including the writer level."""
    spaces = set(index.memberships.get(node.node_id, ()))
    if g.is_writer_level(node):
        spaces = spaces | {EPSILON}
    return spaces


def has_negative_belief(steps: tuple[Step, ...]) -> bool:
    return any(att == BELIEVES_TRUE and pol == NEGATIVE for _, att, pol in steps)


def belief_variant(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """Replace every sentiment step with positive belief by the same source."""
    return tuple(
        (src, BELIEVES_TRUE, POSITIVE) if att == SENTIMENT else (src, att, pol)
        for src, att, pol in steps
    )


def format_space(steps: tuple[Step, ...]) -> str:
    abbrev = {BELIEVES_TRUE: "B", SENTIMENT: "S"}
    inner = " ".join(
        f"{src} {'+' if pol == POSITIVE else '-'}{abbrev.get(att, att)}"
        for src, att, pol in steps
    )
    return f"[{inner}]" if inner else "[]"


# -- contradiction checks ----------------------------------------------------
# A prop to place is a node or a fact.  The checks work on keys: a clash key
# is a fact key without polarity and property, and each wrapper a placement
# would build is looked up level by level, without creating anything.

def _prop_key(g: Graph, prop) -> ClashKey | None:
    """The clash key of a node or fact, or None when nothing can clash with it."""
    if type(prop) is Node:
        return clash_key(prop)
    if prop.node_type in (PRIVATE_STATE, AGREEMENT):
        resolved = g.resolve(prop)
        if resolved is not None:
            return (prop.node_type, prop.att_type, resolved.children)
    return None


def _wrap(g: Graph, step: Step, inner: Node) -> tuple[ClashKey | None, Node | None]:
    """The clash key and the node of the private state a step wraps around inner.

    Two dict gets: the step's source entity, then the wrapper's fact.
    """
    src, att, pol = step
    source = g.lookup(entity_fact(src))
    if source is None:  # then no member has that source either
        return None, None
    wrapper = ps_fact(source, att, pol, inner)
    return (PRIVATE_STATE, att, wrapper.children), g.lookup(wrapper)


def _probe(table, key: ClashKey, polarity: str) -> Node | None:
    """The first member of the table clashing with a key of that polarity."""
    by_polarity = table.get(key) if table else None
    return None if by_polarity is None else by_polarity.get(opposite_polarity(polarity))


def would_contradict(steps: tuple[Step, ...], prop, g: Graph,
                     index: SpaceIndex | None = None):
    """Why adding prop (a node or a fact) to the space would be invalid, or None.

    Invalid if (a) a chain instance of the space ends in a negative
    believesTrue whose target is the prop, or (b) the space (at any wrapping
    level) already holds the same source/attitude/target with the opposite
    polarity.  Returns the first such node in path or member order; failing
    that, the first clash in the spaces the prop's own chain defines below
    (``_chain_clash``).  A caller holding an index that is up to date with
    ``g`` may pass it.
    """
    if index is None:
        index = space_index(g)
    inner = g.lookup(prop)
    if inner is not None and steps and steps[-1][1:] == (BELIEVES_TRUE, NEGATIVE):
        for node in rightmost_nodes(steps, index):
            if node.target is inner:
                return node
    # Check the prop itself and every wrapper the placement would create.  A
    # wrapper's target is the level below; once that does not exist, no
    # member can share its target, at that level or any above it.
    key = _prop_key(g, prop)
    polarity = prop.polarity
    for depth in range(len(steps), -1, -1):
        if key is not None:
            clash = _probe(index.clash_table(steps[:depth]), key, polarity)
            if clash is not None:
                return clash
        if depth == 0 or inner is None:
            break
        polarity = steps[depth - 1][2]
        key, inner = _wrap(g, steps[depth - 1], inner)
    return _chain_clash(steps, prop, g, index)


def _chain_step(prop) -> Step | None:
    """The step a chain node or chain fact adds to the space it is placed in."""
    if prop.node_type == PRIVATE_STATE and prop.att_type in CHAIN_ATTS:
        return (prop.source.name, prop.att_type, prop.polarity)
    return None


def _chain_clash(steps: tuple[Step, ...], prop, g: Graph, index: SpaceIndex):
    """The first clash in the spaces a chain prop placed in the space defines.

    A chain prop placed at steps defines steps + its step, where its target
    becomes a member; a chain target defines the space one step deeper, and
    so on down the chain.
    """
    step = _chain_step(prop)
    while step is not None:
        steps += (step,)
        prop = prop.target
        key = _prop_key(g, prop)
        if key is not None:
            clash = _probe(index.clash_table(steps), key, prop.polarity)
            if clash is not None:
                return clash
        step = _chain_step(prop)
    return None


def first_clash(g: Graph) -> tuple[tuple[Step, ...], Node, Node] | None:
    """The first space holding one source/attitude/target with both polarities.

    Returns (space, positive member, negative member), writer level first.
    """
    index = space_index(g)
    for steps in (EPSILON, *index.spaces):
        for by_polarity in index.clash_table(steps).values():
            if len(by_polarity) > 1:
                return steps, by_polarity[POSITIVE], by_polarity[NEGATIVE]
    return None


class ExtensionOutcome:
    __slots__ = ("fired", "created", "existing", "blocked", "touched")

    def __init__(self, fired: bool):
        self.fired = fired
        self.created: list[Node] = []
        self.existing: list[Node] = []
        self.blocked: list[tuple[tuple[Step, ...], str, str]] = []
        # What a re-fire would record as existing: the bare additions, then
        # each accepted space's tops, de-duplicated.
        self.touched: list[Node] = []


def _order_key(steps: tuple[Step, ...], index: SpaceIndex) -> tuple:
    inst = index.spaces.get(steps)
    return (inst.first_root if inst else 0, len(steps), steps)


def place(g: Graph, node: Node, steps: tuple[Step, ...]) -> tuple[Node, list[Node]]:
    """Intern the chain wrapping node in the space's steps.

    Returns the top node and every node newly created by the wrapping.
    """
    created: list[Node] = []
    current = node
    for src, att, pol in reversed(steps):
        before = len(g.nodes)
        current = g.private_state(src, att, pol, current)
        if len(g.nodes) != before:
            created.append(current)
    if current.is_chain_node() and current.source_name == WRITER:
        g.add_root(current)
    elif not steps:
        g.add_top_level(current)
    return current, created


def extend_spaces(g: Graph, ps: list[Node], assumptions: list, conclusions: list,
                  *, extended_belief_spaces: bool = False) -> ExtensionOutcome:
    """Place assumptions and conclusions into every space holding all the ps.

    Spaces whose defining path carries a negative believesTrue are skipped and
    reported; spaces where any addition (or, in a belief variant, any
    precondition placed there) would contradict are skipped and reported.
    Spaces with sentiment steps propagate additions into their positive-belief
    variants, where only propositions are placed unless extended_belief_spaces
    is set.

    The candidate spaces are visited once, in order.  Each one's additions
    are checked against the index as it stands, which holds every placement
    made into the spaces before it: the space is blocked if any addition
    would contradict, and placed into at once otherwise.  So one fire cannot
    put both polarities of a member into a space through two of its spaces.
    """
    index = space_index(g)
    if ps:
        base: set[tuple[Step, ...]] | None = None
        for p in ps:
            ours = placement_spaces(p, g, index)
            base = ours if base is None else (base & ours)
        base = base or set()
    else:
        base = {EPSILON}
    if not base:
        raise NoCommonSpace("preconditions share no private-state space")

    outcome = ExtensionOutcome(fired=False)
    ordered = sorted(base, key=lambda s: _order_key(s, index))
    candidates: list[tuple[tuple[Step, ...], bool]] = []
    for steps in ordered:
        if has_negative_belief(steps):
            outcome.blocked.append((steps, "negative-belief-path", format_space(steps)))
            continue
        candidates.append((steps, False))
    for steps, _ in list(candidates):
        if any(att == SENTIMENT for _, att, _ in steps):
            variant = belief_variant(steps)
            if all(variant != s for s, _ in candidates):
                candidates.append((variant, True))

    def record(node: Node, is_new: bool) -> None:
        if node in outcome.created or node in outcome.existing:
            return
        (outcome.created if is_new else outcome.existing).append(node)

    additions = list(assumptions) + list(conclusions)
    # A belief variant also receives the preconditions, so they must fit too.
    variant_ps = [p for p in ps if p.is_proposition() or extended_belief_spaces]
    bare: list[Node] = []
    placed: list[Node] = []
    for steps, is_variant in candidates:
        props = (additions + variant_ps) if is_variant else additions
        clash = None
        for prop in props:
            clash = would_contradict(steps, prop, g, index)
            if clash is not None:
                break
        if clash is not None:
            outcome.blocked.append(
                (steps, "space-contradiction", f"node {clash.node_id}")
            )
            continue
        if not outcome.fired:
            outcome.fired = True
            # Intern the bare propositions first so conclusions can nest
            # assumptions.  Sub-structures (ideaOf, p(x)) interned on the way
            # count as created too.
            for fact in additions:
                start = len(g.nodes)
                node = g.intern(fact)
                for fresh in g.nodes[start:]:
                    record(fresh, True)
                record(node, False)
                bare.append(node)
        for node in (bare + variant_ps) if is_variant else bare:
            top, wrappers = place(g, node, steps)
            for w in wrappers:
                record(w, True)
            record(top, False)
            placed.append(top)
        index = space_index(g)  # take in what was just placed
    outcome.touched = list(dict.fromkeys(bare + placed))
    return outcome
