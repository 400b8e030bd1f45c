"""Private-state spaces: membership, extension, and in-space blocking.

A space is named by the step list of a chain of sentiment/believesTrue nodes
rooted at the writer: each step is (source, attitude type, polarity).  A node
is in a space when it is the target of the rightmost node of a chain carrying
those steps.  Two chains with the same step list are the same space.
"""

from __future__ import annotations

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
    clash_key,
    entity_fact,
    opposite_polarity,
    ps_fact,
)

Step = tuple[str, str, str]  # (source name, attitude type, polarity)
EPSILON: tuple[Step, ...] = ()


ClashKey = tuple  # what graph.clash_key returns


def _add_to_table(table: dict[ClashKey, dict[str, Node]], node: Node) -> None:
    key = node.clash
    if key is not None:
        by_polarity = table.get(key)
        if by_polarity is None:
            table[key] = {node.polarity: node}
        elif node.polarity not in by_polarity:
            by_polarity[node.polarity] = node


class SpaceInstance:
    __slots__ = ("steps", "paths", "members", "clash", "first_root", "negative_belief",
                 "variant")

    def __init__(self, steps: tuple[Step, ...], parent: SpaceInstance | None):
        self.steps = steps
        self.paths: list[tuple[Node, ...]] = []  # chain node sequences
        self.members: dict[int, Node] = {}  # by node id, in insertion order
        self.clash: dict[ClashKey, dict[str, Node]] = {}  # {polarity: first}
        self.first_root = 0  # smallest root id among the paths
        # The space's kind, read on every fire: whether a step is a negative
        # belief, and the belief variant (None without a sentiment step).
        # Both extend those of the parent, the space one step up (None for a
        # one-step space), by the last step.
        src, att, pol = steps[-1]
        if parent is None:
            above, negative, variant = EPSILON, False, None
        else:
            above, negative, variant = parent.steps, parent.negative_belief, parent.variant
        self.negative_belief = negative or (att == BELIEVES_TRUE and pol == NEGATIVE)
        if att == SENTIMENT:
            belief = (src, BELIEVES_TRUE, POSITIVE)
            self.variant = (above if variant is None else variant) + (belief,)
        else:
            self.variant = None if variant is None else variant + (steps[-1],)


class SpaceIndex:
    """All chains of the graph, grouped by step list, plus clash tables.

    The index is append-only and follows the graph: ``Graph.add_root`` and
    ``Graph.add_top_level`` pass each new node to the graph's cached index
    (``space_index``).  Nodes are hash-consed and never change, so a chain
    below a root is fixed once the root exists.  The one change to an
    existing node, ``Graph.attach_role2``, runs during composition, before
    the first index is built, and raises after it; so the cached index lives
    as long as the graph.  An index built directly, ``SpaceIndex(g)``, is a
    snapshot: only its ``writer_level``, the graph's own set, stays current.

    Each space has one clash table of its members; the writer level's
    (EPSILON) holds the roots and the top-level facts, which ``writer_level``
    also holds.  Their keys do not meet, since a root is a writer chain node
    and a top-level fact is not.  ``memberships`` maps a node id to its
    spaces' steps, each to the first chain that put the node there; one loop
    (``_add_chains``) fills it, the spaces and their tables, level by level.
    """

    def __init__(self, g: Graph):
        self.spaces: dict[tuple[Step, ...], SpaceInstance] = {}
        self.memberships: dict[int, dict[tuple[Step, ...], tuple[Node, ...]]] = {}
        self.writer_clash: dict[ClashKey, dict[str, Node]] = {}
        self.writer_level = g.writer_level
        for root in g.roots:
            self.add_root(root)
        for node in g.top_level:
            self.add_top_level(node)

    def add_root(self, root: Node) -> None:
        """Take in a new root and its chains."""
        _add_to_table(self.writer_clash, root)
        self._add_chains(root)

    def add_top_level(self, node: Node) -> None:
        """Take in a new top-level fact."""
        _add_to_table(self.writer_clash, node)

    def _add_chains(self, root: Node) -> None:
        """Put each level's member, and a gfbf member's role2, into the space's
        members, its clash table and their memberships, in one loop.  A
        membership is keyed on the instance's own ``steps``, not the tuple
        this walk builds, so no second copy stays alive."""
        spaces, memberships = self.spaces, self.memberships
        path: tuple[Node, ...] = ()
        steps: tuple[Step, ...] = EPSILON
        parent = None
        node, root_id = root, root.node_id
        while node is not None and node.is_chain_node():
            path += (node,)
            steps += ((node.source.name, node.att_type, node.polarity),)
            inst = spaces.get(steps)
            if inst is None:
                inst = spaces[steps] = SpaceInstance(steps, parent)
            paths, members, key = inst.paths, inst.members, inst.steps
            paths.append(path)
            if len(paths) == 1 or root_id < inst.first_root:
                inst.first_root = root_id
            member = node.target
            role2 = member.role2
            for held in ((member,) if role2 is None else (member, role2)):
                node_id = held.node_id
                if node_id in members:
                    continue
                members[node_id] = held
                _add_to_table(inst.clash, held)
                by_space = memberships.get(node_id)
                if by_space is None:
                    memberships[node_id] = {key: path}
                else:
                    by_space[key] = path
            parent = inst
            node = member

    def placed_top(self, node: Node, steps: tuple[Step, ...]) -> Node | None:
        """The root of the chain ``place`` would build to put node into the
        space, when the index already holds exactly that chain; else None.

        At the writer level (EPSILON) ``place`` builds no chain and returns
        the node itself, so a root or top-level fact is its own top.  In a
        space, the chain recorded for the membership must end in node itself,
        not in a gfbf holding node as its role2, and carry no substantial
        link, since ``place`` builds none.
        """
        if not steps:
            return node if node in self.writer_level else None
        by_space = self.memberships.get(node.node_id)
        path = by_space.get(steps) if by_space else None
        if path is None or path[-1].target is not node:
            return None
        for link in path:
            if link.property is not None:
                return None
        return path[0]

    def clash_table(self, steps: tuple[Step, ...]) -> dict | None:
        """The clash table of a space's members, or None for an unknown space."""
        if steps == EPSILON:
            return self.writer_clash
        inst = self.spaces.get(steps)
        return inst.clash if inst else None


def space_index(g: Graph) -> SpaceIndex:
    """The graph's index, built on the first call."""
    index = g._space_index
    if index is None:
        index = g._space_index = SpaceIndex(g)
    return index


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
        return prop.clash
    if prop.node_type in (PRIVATE_STATE, AGREEMENT):  # resolve only what can clash
        resolved = g.resolve(prop)
        return None if resolved is None else clash_key(resolved)
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
    return clash_key(wrapper), g.lookup(wrapper)


def _probe(table, key: ClashKey, polarity: str) -> Node | None:
    """The first member of the table clashing with a key of that polarity."""
    by_polarity = table.get(key) if table else None
    return None if by_polarity is None else by_polarity.get(opposite_polarity(polarity))


def would_contradict(steps: tuple[Step, ...], prop, g: Graph, index: SpaceIndex):
    """Why adding prop (a node or a fact) to the space would be invalid, or None.

    Invalid if (a) a chain instance of the space ends in a negative
    believesTrue whose target is the prop, or (b) the space (at any wrapping
    level) already holds the same source/attitude/target with the opposite
    polarity.  Returns the first such node in path or member order; failing
    that, the first clash in the spaces the prop's own chain defines below
    (``_chain_clash``).  ``index`` is the graph's (``space_index``).
    """
    inner = g.lookup(prop)
    if inner is not None and steps and steps[-1][1:] == (BELIEVES_TRUE, NEGATIVE):
        inst = index.spaces.get(steps)
        if inst is not None:
            for path in inst.paths:
                if path[-1].target is inner:
                    return path[-1]
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
    if prop.node_type == PRIVATE_STATE and prop.att_type in CHAIN_ATTS:
        return _chain_clash(steps, prop, g, index)
    return None


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


def _order_key(steps: tuple[Step, ...], index: SpaceIndex) -> tuple:
    inst = index.spaces.get(steps)
    return (inst.first_root if inst else 0, len(steps), steps)


def place(g: Graph, node: Node, steps: tuple[Step, ...],
          chain: tuple[Node, ...]) -> tuple[Node, list[Node]]:
    """Intern the chain wrapping node in the space's steps.

    Each level takes its source entity from the same level of chain: a chain
    of the space itself or, for a belief variant, of its base space, whose
    steps have the same sources.  Returns the top node and every node newly
    created by the wrapping.
    """
    created: list[Node] = []
    current = node
    for (_, att, pol), link in zip(reversed(steps), reversed(chain)):
        before = len(g.nodes)
        current = g.private_state(link.source, att, pol, current)
        if len(g.nodes) != before:
            created.append(current)
    if current.is_chain_node() and current.source_name == WRITER:
        g.add_root(current)
    elif not steps:
        g.add_top_level(current)
    return current, created


def extend_spaces(g: Graph, ps: list[Node], assumptions: list, conclusions: list,
                  *, extended_belief_spaces: bool = False) -> tuple[list, list, list]:
    """Place assumptions and conclusions into every space holding all the ps.

    Spaces whose defining path carries a negative believesTrue are skipped and
    reported; spaces where any addition (or, in a belief variant, any
    precondition placed there) would contradict are skipped and reported.
    Returns (created, existing, blocks): the nodes created, the existing nodes
    reported, and the (space, cause, detail) reports.  An extension placing
    into some space reports each addition as created or existing; one placing
    into none interns nothing, and reports nothing when the ps share no space.
    Spaces with sentiment steps propagate additions into their positive-belief
    variants, where only propositions are placed unless extended_belief_spaces
    is set.

    The candidate spaces are visited once, in order.  Each one's additions
    are checked against the index as it stands, which holds every placement
    made into the spaces before it: the space is blocked if any addition
    would contradict, and placed into at once otherwise.  So one fire cannot
    put both polarities of a member into a space through two of its spaces.

    An addition the index already holds as placed (``SpaceIndex.placed_top``)
    is neither checked nor placed again, and its top (its chain's root, or
    the node itself at the writer level) is reported as ``place`` would
    report it.  It cannot clash: no clash table holds both
    polarities, and no candidate is a negative-belief space.
    """
    index = space_index(g)
    # The spaces every precondition occupies, the writer level included.
    base: set[tuple[Step, ...]] | None = None
    for p in ps:
        ours = set(index.memberships.get(p.node_id, ()))
        if p in g.writer_level:
            ours.add(EPSILON)
        base = ours if base is None else base & ours
    if base is None:
        base = {EPSILON}
    created, existing, blocks = [], [], []
    if not base:
        return created, existing, blocks
    ordered = sorted(base, key=lambda s: _order_key(s, index)) if len(base) > 1 else base
    # (steps, the chain place takes the sources from, is a belief variant)
    candidates: list[tuple[tuple[Step, ...], tuple[Node, ...], bool]] = []
    variants: list[tuple[tuple[Step, ...], tuple[Node, ...], bool]] = []
    for steps in ordered:
        inst = index.spaces.get(steps)
        if inst is None:  # the writer level
            candidates.append((steps, (), False))
            continue
        if inst.negative_belief:
            blocks.append((steps, "negative-belief-path", format_space(steps)))
            continue
        candidates.append((steps, inst.paths[0], False))
        if inst.variant is not None:
            variants.append((inst.variant, inst.paths[0], True))
    if variants:
        taken = [steps for steps, _, _ in candidates]
        for variant in variants:
            if variant[0] not in taken:
                taken.append(variant[0])
                candidates.append(variant)

    additions = [*assumptions, *conclusions]
    # A belief variant also receives the preconditions, so they must fit too.
    variant_ps = [p for p in ps if p.is_proposition() or extended_belief_spaces]
    seen: set[Node] = set()  # the nodes in created or existing
    bare: list[Node] = []  # the additions' nodes, once a space takes them
    for steps, chain, is_variant in candidates:
        # Once interned, the additions are checked as their nodes, which a
        # check finds without resolving them again.
        adding = bare or additions
        props = (adding + variant_ps) if is_variant else adding
        clash = None
        for prop in props:
            node = g.lookup(prop)
            if node is not None and index.placed_top(node, steps) is not None:
                continue
            clash = would_contradict(steps, prop if node is None else node, g, index)
            if clash is not None:
                break
        if clash is not None:
            blocks.append((steps, "space-contradiction", f"node {clash.node_id}"))
            continue
        if not bare:
            # Intern the bare propositions first so conclusions can nest
            # assumptions.  Sub-structures (ideaOf, p(x)) interned on the way
            # count as created too.  A node created here is not in seen yet.
            for fact in additions:
                start = len(g.nodes)
                node = g.intern(fact)
                fresh = g.nodes[start:]
                created += fresh
                seen.update(fresh)
                if node not in seen:
                    seen.add(node)
                    existing.append(node)
                bare.append(node)
        for node in (bare + variant_ps) if is_variant else bare:
            top = index.placed_top(node, steps)
            if top is None:
                top, wrappers = place(g, node, steps, chain)
                created += wrappers
                seen.update(wrappers)
            if top not in seen:
                seen.add(top)
                existing.append(top)
    return created, existing, blocks
