"""Text displays, machine-readable export, and the what-if diff.

Two text formats: the indented node display (one line per node, children
indented below), and the "by spaces" summary that lists, for every
space-resident node, the spaces containing it.  JSON is the contract surface;
the text mimics the node-display conventions without promising byte equality
with any particular listing.
"""

from __future__ import annotations

try:  # the C routine json.dumps uses, without loading the json package
    from _json import encode_basestring as _encode
except ImportError:
    from json.encoder import encode_basestring as _encode

from .annotations import AnnotationDoc, Lexicon
from .graph import (
    AGREEMENT,
    ANIM,
    BELIEVES_SHOULD,
    BELIEVES_TRUE,
    GFBF,
    IDEA_OF,
    INFLUENCER,
    INTENDS,
    P_X,
    POSITIVE,
    PRIVATE_STATE,
    THING,
    EvidenceFact,
    Graph,
    Node,
)
from .rules import Config, InferenceResult, process_document
from .spaces import format_space, space_index

_INDENT = "  "
_NEST = "\n" + _INDENT  # a line break one level deeper


def _display(node: Node, memo: dict[Node, str]) -> str:
    """The node's display at indent 0, one line per node, children indented.

    ``memo`` holds the display of every node built so far in one view, so a
    subtree shared by several nodes is built once; a child's display is
    nested by indenting each of its lines.
    """
    text = memo.get(node)
    if text is not None:
        return text
    t = node.node_type
    if t in (ANIM, THING):
        text = f"{node.node_id} {node.name}"
    elif t == GFBF:
        text = f"{node.node_id} {node.agent.name} {node.anchor or node.effect} {node.object.name}"
        derived = node.role2
        if derived is not None:
            text += (f"{_NEST}{derived.node_id} {derived.agent.name};"
                     f" which is {derived.effect} {derived.object.name}")
    else:
        if t == IDEA_OF:
            head, child = f"{node.node_id} ideaOf", node.idea_object
        elif t == P_X:
            head, child = f"{node.node_id} {node.property}", node.x
        elif t == AGREEMENT:
            verb = "agrees" if node.polarity == POSITIVE else "disagrees"
            head = f"{node.node_id} {node.source.name} {verb} with {node.with_whom.name} that"
            child = node.target
        elif t == PRIVATE_STATE:
            prop = f" {node.property}" if node.property else ""
            head = f"{node.node_id} {node.source.name} {node.polarity} {node.att_type}{prop}"
            child = node.target
        elif t == INFLUENCER:
            head, child = f"{node.node_id} {node.agent.name} <{node.property}>", node.target
        else:
            raise ValueError(f"unrenderable node type {t!r}")
        text = head + _NEST + _display(child, memo).replace("\n", _NEST)
    memo[node] = text
    return text


def _evidence_display(fact: EvidenceFact, memo: dict[Node, str]) -> str:
    if fact.att_type == INTENDS:
        qualifier = "intentional" if fact.polarity == POSITIVE else "not intentional"
        head = f"{fact.fact_id} There is evidence that the following is {qualifier}:"
    elif fact.att_type == BELIEVES_TRUE:
        qualifier = "substantial" if fact.polarity == POSITIVE else "not substantial"
        head = f"{fact.fact_id} There is evidence that the following is {qualifier}"
    else:
        head = f"{fact.fact_id} (evidence,{fact.holder},{fact.polarity},{fact.att_type})"
    return head + _NEST + _display(fact.target, memo).replace("\n", _NEST)


# The node types the by-spaces view shows: these, and the private states whose
# attitude is one of _BY_SPACES_ATTS.
_BY_SPACES_TYPES = (ANIM, THING, GFBF, IDEA_OF, AGREEMENT)
_BY_SPACES_ATTS = (INTENDS, BELIEVES_SHOULD)


def render_by_spaces(result: InferenceResult) -> str:
    """Space-membership summary: each resident node under its space lines,
    its spaces in the order of their chains' roots."""
    g = result.graph
    memberships = space_index(g).memberships
    # A space line is "[" and the chain's root id before format_space's text
    # of the space, whose steps are the membership's key: one text per space.
    labels: dict[tuple, str] = {}
    memo: dict[Node, str] = {}
    chunks = []
    for node in g.nodes:  # in id order
        spaces = memberships.get(node.node_id)
        if spaces is None or node.retired:
            continue
        t = node.node_type
        if t not in _BY_SPACES_TYPES and not (t == PRIVATE_STATE
                                              and node.att_type in _BY_SPACES_ATTS):
            continue
        lines = []
        for steps, path in sorted(spaces.items(), key=lambda item: item[1][0].node_id):
            label = labels.get(steps)
            if label is None:
                label = labels[steps] = format_space(steps)[1:]
            prefix = "From Input: [" if all(n.from_input for n in path) else "["
            lines.append(f"{prefix}{path[0].node_id} {label}")
        lines.append(_display(node, memo))
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def render_graph(g: Graph) -> str:
    """Top-level view: every root chain and writer-level fact, in id order."""
    tops = sorted(list(g.roots) + list(g.top_level), key=lambda n: n.node_id)
    memo: dict[Node, str] = {}
    parts = [_display(n, memo) for n in tops]
    parts.extend(_evidence_display(f, memo) for f in g.evidence if not f.retired)
    return "\n".join(parts) + ("\n" if parts else "")


def render_trace(result: InferenceResult) -> str:
    lines = []
    for event in result.trace:
        if event.kind == "composition":
            lines.append(f"[composition] {event.rule}")
        else:
            lines.append(f"[iteration {event.iteration}] {event.rule}")
        if event.preconditions:
            lines.append("  preconditions: " + ", ".join(map(str, event.preconditions)))
        if event.assumptions:
            lines.append("  assumptions: " + ", ".join(map(str, event.assumptions)))
        if event.created:
            lines.append("  created: " + ", ".join(map(str, event.created)))
        if event.existing:
            lines.append("  existing: " + ", ".join(map(str, event.existing)))
        for block in event.blocks:
            space = f" in space {format_space(block.space)}" if block.space else ""
            lines.append(f"  blocked{space}: {block.cause} ({block.detail})")
    return "\n".join(lines) + ("\n" if lines else "")


# -- JSON ---------------------------------------------------------------------

def dumps(results: list[InferenceResult]) -> str:
    """The JSON export: ``format_version`` 2 and one object per sentence,
    with the keys text, nodes, roots, topLevel, evidence, spaces, trace and
    blocks, as text ending in a newline.

    The layout is ``json.dumps``'s with ``indent=2`` and
    ``ensure_ascii=False``, byte for byte.  With an indent, ``json`` falls
    back to its pure-Python encoder; this writer lays out the text itself,
    encoding strings with the C routine that ``json`` uses.  Every piece goes
    into one list, joined once.

    The writers of the per-node objects make no call per field: a string
    field is read from one table per call (``_Strings``), which encodes each
    distinct string once, a boolean indexes ``_BOOL``, and an empty list of
    ids is written without a call.
    """
    strings = _Strings({None: "null"})
    out = ['{\n  "format_version": 2,\n  "sentences": ']
    if results:
        sep = "[\n    "
        for result in results:
            out.append(sep)
            _write_sentence(out, result, strings)
            sep = ",\n    "
        out.append("\n  ]")
    else:
        out.append("[]")
    out.append("\n}\n")
    return "".join(out)


class _Strings(dict):
    """One dumps call's JSON text of each string field's value, encoded on
    first use; dumps seeds it with None's, null."""

    __slots__ = ()

    def __missing__(self, value: str) -> str:
        text = self[value] = _encode(value)
        return text


_BOOL = ("false", "true")  # indexed by a bool
_NO_INTS = "[]"  # an empty list of ints, at any level

# _PAD[k] is the indent of nesting level k: a sentence's braces sit at level 2,
# its keys at 3, the objects of its lists at 4 and their keys at 5; the
# deepest text, a step inside a trace event's block, sits at level 9.
_PAD = tuple(" " * (2 * k) for k in range(10))


def _ints(values, level: int) -> str:
    """A list of ints whose brackets sit at the given level."""
    if not values:
        return _NO_INTS
    inner = _PAD[level + 1]
    return f"[\n{inner}" + f",\n{inner}".join(map(str, values)) + f"\n{_PAD[level]}]"


def _steps(steps, level: int) -> str:
    """A space's step list: a list of [source, attitude, polarity] lists."""
    if not steps:
        return "[]"
    inner, innermost = _PAD[level + 1], _PAD[level + 2]
    items = [f"[\n{innermost}" + f",\n{innermost}".join(map(_encode, step))
             + f"\n{inner}]" for step in steps]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{_PAD[level]}]"


def _blocks(blocks, level: int) -> str:
    """A non-empty list of block reports (rule, binding, cause, detail, and
    the space or null), its brackets at the given level."""
    pad, key = _PAD[level + 1], _PAD[level + 2]
    items = [
        f'{{\n{key}"rule": {_encode(block.rule)},'
        f'\n{key}"binding": {_ints(block.binding, level + 2)},'
        f'\n{key}"cause": {_encode(block.cause)},'
        f'\n{key}"detail": {_encode(block.detail)},'
        f'\n{key}"space": {_steps(block.space, level + 2) if block.space else "null"}'
        f'\n{pad}}}'
        for block in blocks
    ]
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{_PAD[level]}]"


# Objects of a sentence's lists: braces at level 4, keys at level 5.

# A node's "children" object: each node type's keys, sorted, with the index in
# the fact's parts of the part each names.  None stands for a gfbf's effect,
# the fact's label, which names its object; role2 is there only when attached.
_CHILD_KEYS = {
    GFBF: (("agent", 0), (None, 1), ("object", 1), ("role2", 2)),
    IDEA_OF: (("ideaObject", 0),),
    P_X: (("x", 0),),
    PRIVATE_STATE: (("source", 0), ("target", 1)),
    AGREEMENT: (("source", 0), ("target", 2), ("withWhom", 1)),
    INFLUENCER: (("agent", 0), ("target", 1)),
}
# The same, each key written out as its JSON text and the colon after it.
_CHILD_PREFIXES = {
    node_type: tuple((None if label is None else f"{_encode(label)}: ", index)
                     for label, index in keys)
    for node_type, keys in _CHILD_KEYS.items()
}


def _node_text(node: Node, strings: _Strings) -> str:
    key = node.key
    parts = key.parts
    if parts:
        n = len(parts)
        kids = "{\n            " + ",\n            ".join([
            f"{strings[key.name] + ': ' if prefix is None else prefix}{parts[index].node_id}"
            for prefix, index in _CHILD_PREFIXES[node.node_type] if index < n
        ]) + "\n          }"
    else:
        kids = "{}"
    return (
        f'{{\n          "id": {node.node_id},'
        f'\n          "type": {strings[node.node_type]},'
        f'\n          "attType": {strings[node.att_type]},'
        f'\n          "polarity": {strings[node.polarity]},'
        f'\n          "property": {strings[node.property]},'
        f'\n          "name": {strings[node.name]},'
        f'\n          "anchor": {strings[node.anchor]},'
        f'\n          "fromInput": {_BOOL[node.from_input]},'
        f'\n          "retired": {_BOOL[node.retired]},'
        f'\n          "children": {kids}\n        }}'
    )


def _evidence_text(fact: EvidenceFact, strings: _Strings) -> str:
    return (
        f'{{\n          "id": {fact.fact_id},'
        f'\n          "holder": {strings[fact.holder]},'
        f'\n          "attType": {strings[fact.att_type]},'
        f'\n          "polarity": {strings[fact.polarity]},'
        f'\n          "property": {strings[fact.property]},'
        f'\n          "target": {fact.target.node_id},'
        f'\n          "fromInput": true,'
        f'\n          "retired": {_BOOL[fact.retired]}\n        }}'
    )


def _space_text(space, strings: _Strings) -> str:
    steps, inst = space
    return (
        f'{{\n          "steps": {_steps(steps, 5)},'
        f'\n          "members": {_ints(sorted(inst.members), 5)}\n        }}'
    )


def _event_text(event, strings: _Strings) -> str:
    pre, assumed, created, existing, blocks = (
        event.preconditions, event.assumptions, event.created, event.existing, event.blocks)
    return (
        f'{{\n          "kind": {strings[event.kind]},'
        f'\n          "rule": {strings[event.rule]},'
        f'\n          "iteration": {event.iteration},'
        f'\n          "preconditions": {_ints(pre, 5) if pre else _NO_INTS},'
        f'\n          "assumptions": {_ints(assumed, 5) if assumed else _NO_INTS},'
        f'\n          "created": {_ints(created, 5) if created else _NO_INTS},'
        f'\n          "existing": {_ints(existing, 5) if existing else _NO_INTS},'
        f'\n          "blocks": {_blocks(blocks, 5) if blocks else "[]"}\n        }}'
    )


def _write_objects(out: list[str], items, text, strings: _Strings) -> None:
    """A sentence's list of objects, brackets at level 3, one piece per object."""
    if not items:
        out.append("[]")
        return
    sep = "[\n        "
    for item in items:
        out.append(sep)
        out.append(text(item, strings))
        sep = ",\n        "
    out.append("\n      ]")


def _write_sentence(out: list[str], result: InferenceResult, strings: _Strings) -> None:
    """One sentence's object, its braces at level 2."""
    g = result.graph
    index = space_index(g)
    out.append(f'{{\n      "text": {strings[g.text]},\n      "nodes": ')
    _write_objects(out, g.nodes, _node_text, strings)
    out.append(f',\n      "roots": {_ints([n.node_id for n in g.roots], 3)}'
               f',\n      "topLevel": {_ints([n.node_id for n in g.top_level], 3)}'
               ',\n      "evidence": ')
    _write_objects(out, g.evidence, _evidence_text, strings)
    out.append(',\n      "spaces": ')
    ordered = sorted(index.spaces, key=lambda s: (len(s), s))
    _write_objects(out, [(steps, index.spaces[steps]) for steps in ordered], _space_text,
                   strings)
    out.append(',\n      "trace": ')
    _write_objects(out, g.trace, _event_text, strings)
    blocks = result.block_reports()
    out.append(f',\n      "blocks": {_blocks(blocks, 3) if blocks else "[]"}\n    }}')


def structural_inventory(g: Graph) -> list[str]:
    """Sorted structural keys of every node plus root/evidence markers."""
    keys = sorted(n.structural_key() for n in g.nodes)
    keys.extend(sorted("root " + n.structural_key() for n in g.roots))
    keys.extend(sorted("top " + n.structural_key() for n in g.top_level))
    keys.extend(
        sorted(
            f"(ev {f.holder} {f.att_type} {f.polarity} {f.property} {f.target.structural_key()})"
            for f in g.evidence
        )
    )
    return keys


# -- what-if ------------------------------------------------------------------

def writer_fact_keys(g: Graph) -> set[str]:
    """Structural keys of the writer-level facts (roots and top-level nodes)."""
    return {n.structural_key() for n in list(g.roots) + list(g.top_level)}


def whatif_diff(doc: AnnotationDoc, lex: Lexicon, line_id: str, polarity: str,
                cfg: Config | None = None) -> list[tuple[list[str], list[str]]]:
    """Run the document and its polarity-flipped variant; diff conclusions.

    Returns one (only_in_original, only_in_variant) pair per sentence, as
    sorted structural keys of writer-level facts.
    """
    base = process_document(doc, lex, cfg)
    flipped = process_document(doc.with_polarity(line_id, polarity), lex, cfg)
    diffs = []
    for b, f in zip(base, flipped):
        base_keys = writer_fact_keys(b.graph)
        flip_keys = writer_fact_keys(f.graph)
        diffs.append((sorted(base_keys - flip_keys), sorted(flip_keys - base_keys)))
    return diffs
