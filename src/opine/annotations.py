"""Parser for the textual annotation format and the lexicon.

An annotation document is a sequence of sentence blocks separated by blank
lines.  A block starts with the quoted sentence, followed by one line per
annotation::

    "Is it no surprise then that MoveOn would attack Senator McCain.!?"
    E1 gfbf <MoveOn, badFor (attack,attack:lexEntry), Senator McCain>
    S1 subjectivity <writer, negative sentiment (surprise & then), E1>

Angle brackets may be typed as ``<`` ``>`` or ``⟨`` ``⟩``.  Entities may carry
a ``:thing`` suffix (inanimate) and a ``(key:lexEntry)`` suffix naming a
lexicon key.  ``Prop`` lines attach the ``substantial`` property to a
believesTrue line: ``Prop1 p(B2,substantial)``.

Lines are matched with ``str`` methods (``split``, ``partition``, ``find``,
``endswith``), not regular expressions, so importing the parser compiles
nothing.  Whitespace is what ``str.split()`` splits on, letters in a prop
name are ASCII, and digits in an id are any Unicode decimal digits.
"""

from __future__ import annotations

from .errors import (
    DanglingReference,
    DuplicateId,
    DuplicateKey,
    MalformedLine,
    MalformedRecord,
    RootConstraintViolation,
)
from .records import Record

KINDS = ("gfbf", "influencer", "subjectivity", "privateState", "evidence", "prop")
ATT_TYPES = ("sentiment", "believesTrue", "intends", "believesShould")
EVIDENCE_ATTS = ("intends", "believesTrue", "sentiment")
POLARITIES = ("positive", "negative")
EFFECTS = ("goodFor", "badFor")
INFLUENCER_KINDS = ("retain", "reverse")

WRITER = "writer"

_QUOTES = {'"': '"', "'": "'", "“": "”", "«": "»"}

_LINE_KINDS = frozenset(KINDS) - {"prop"}  # prop lines have their own shape
_BARE_HEADS = frozenset(EFFECTS + INFLUENCER_KINDS)
_LEX_SUFFIX = ":lexEntry)"


def _match_prop(raw: str) -> tuple[str, str, str] | None:
    """Split ``<id> p(<target>, <prop>)`` into id, target and prop, or return None.

    The id is the first whitespace-separated token.  The target has no comma
    and no whitespace, the prop is one or more ASCII letters, and whitespace
    may stand around either of them.  ``raw`` is a stripped line.
    """
    parts = raw.split(None, 1)
    if len(parts) < 2 or not parts[1].startswith("p(") or not parts[1].endswith(")"):
        return None
    target, comma, prop = parts[1][2:-1].partition(",")
    target, prop = target.strip(), prop.strip()
    if not comma or len(target.split()) != 1 or not (prop.isascii() and prop.isalpha()):
        return None
    return parts[0], target, prop


def _match_line(raw: str) -> tuple[str, str, str] | None:
    """Split ``<id> <kind> <body>`` into id, kind and body, or return None.

    The kind is gfbf, influencer, subjectivity, privateState or evidence, with
    whitespace on both sides.  The body is everything between the ``<`` or
    ``⟨`` that opens the rest of the line and the ``>`` or ``⟩`` that ends it.
    ``raw`` is a stripped line.
    """
    parts = raw.split(None, 2)
    if len(parts) < 3 or parts[1] not in _LINE_KINDS:
        return None
    rest = parts[2]
    if len(rest) < 2 or rest[0] not in "<⟨" or rest[-1] not in ">⟩":
        return None
    return parts[0], parts[1], rest[1:-1]


def _match_attitude(field: str) -> tuple[list[str], str | None] | None:
    """Split ``<head> [(<anchor>)]`` into the head's words and the anchor, or return None.

    The head is goodFor, badFor, retain, reverse, or ``positive|negative``
    and an attitude type with whitespace between.  The anchor runs from the
    first ``(`` to the ``)`` that ends the field; whitespace may precede the
    ``(``.  Without a ``(`` the anchor is None.  ``field`` is stripped.
    """
    open_at = field.find("(")
    if open_at < 0:
        head, anchor = field, None
    elif field.endswith(")"):
        head, anchor = field[:open_at], field[open_at + 1 : -1]
    else:
        return None
    words = head.split()
    if len(words) == 1:
        return (words, anchor) if words[0] in _BARE_HEADS else None
    if len(words) == 2 and words[0] in POLARITIES and words[1] in ATT_TYPES:
        return words, anchor
    return None


def _match_lex_key(token: str) -> tuple[str, str] | None:
    """Split ``<name> (<key>:lexEntry)`` into name and key, or return None.

    The key is the non-empty text, with no parenthesis in it, between the
    last ``(`` and the ``:lexEntry)`` that ends the token.
    """
    if not token.endswith(_LEX_SUFFIX):
        return None
    open_at = token.rfind("(")
    key = token[open_at + 1 : -len(_LEX_SUFFIX)]
    if open_at < 0 or not key or ")" in key:
        return None
    return token[:open_at], key


def _is_id_like(token: str) -> bool:
    """Whether the token is E, S, B, I, V or Prop followed by decimal digits."""
    if token.startswith("Prop"):
        return token[4:].isdecimal()
    return token[:1] in ("E", "S", "B", "I", "V") and token[1:].isdecimal()


class EntityRef(Record):
    """A surface-string entity mention, with inanimacy and lexicon-key flags."""

    __slots__ = ()
    _fields = ("name", "thing", "lex_key")

    def __new__(cls, name: str, thing: bool = False, lex_key: str | None = None):
        return tuple.__new__(cls, (name, thing, lex_key))


class AnnotationLine(Record):
    __slots__ = ()
    _fields = ("line_id", "kind", "source", "attitude", "polarity", "anchor", "lex_key",
               "target", "role2", "lineno")

    def __new__(cls, line_id: str, kind: str,
                # agent for gfbf/influencer; None for evidence "none" and prop
                source: EntityRef | None,
                # goodFor/badFor, retain/reverse, an attitude type, or "substantial"
                attitude: str,
                polarity: str | None, anchor: str, lex_key: str | None,
                # EntityRef, or a line id defined earlier in the block
                target: EntityRef | str,
                role2: EntityRef | None = None, lineno: int = 0):
        return tuple.__new__(cls, (line_id, kind, source, attitude, polarity, anchor, lex_key,
                                   target, role2, lineno))


class SentenceAnnotation:
    __slots__ = ("text", "lines")

    def __init__(self, text: str, lines: list[AnnotationLine] | None = None):
        self.text = text
        self.lines = [] if lines is None else lines

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.text == other.text and self.lines == other.lines

    def __repr__(self):
        return f"SentenceAnnotation(text={self.text!r}, lines={self.lines!r})"

    def line(self, line_id: str) -> AnnotationLine:
        for ln in self.lines:
            if ln.line_id == line_id:
                return ln
        raise KeyError(line_id)


class AnnotationDoc:
    __slots__ = ("sentences", "source_name")

    def __init__(self, sentences: list[SentenceAnnotation] | None = None,
                 source_name: str = "<input>"):
        self.sentences = [] if sentences is None else sentences
        self.source_name = source_name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sentences == other.sentences and self.source_name == other.source_name

    def __repr__(self):
        return f"AnnotationDoc(sentences={self.sentences!r}, source_name={self.source_name!r})"

    def with_polarity(self, line_id: str, polarity: str) -> "AnnotationDoc":
        """Return a copy of the document with one line's polarity replaced."""
        if polarity not in POLARITIES:
            raise ValueError(f"bad polarity {polarity!r}")
        found = False
        sentences = []
        for sent in self.sentences:
            lines = []
            for ln in sent.lines:
                if ln.line_id == line_id:
                    if ln.polarity is None:
                        raise ValueError(f"line {line_id} carries no polarity")
                    ln = ln._replace(polarity=polarity)
                    found = True
                lines.append(ln)
            sentences.append(SentenceAnnotation(sent.text, lines))
        if not found:
            raise KeyError(line_id)
        return AnnotationDoc(sentences, self.source_name)


def _split_top_commas(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _parse_entity(token: str) -> EntityRef:
    lex_key = None
    m = _match_lex_key(token)
    if m:
        token = m[0].strip()
        lex_key = m[1].strip()
    thing = token.endswith(":thing")
    if thing:
        token = token[: -len(":thing")].strip()
    return EntityRef(token, thing=thing, lex_key=lex_key)


def _parse_anchor(raw: str | None) -> tuple[str, str | None]:
    if raw is None:
        return "", None
    raw = raw.strip()
    if raw in ('""', "''"):
        return "", None
    segments = raw.split(",")
    if len(segments) > 1 and segments[-1].strip().endswith(":lexEntry"):
        key = segments[-1].strip()[: -len(":lexEntry")]
        return ",".join(segments[:-1]).strip(), key
    if len(segments) == 1 and segments[0].strip().endswith(":lexEntry"):
        # bare "(key:lexEntry)" with no anchor text
        return "", segments[0].strip()[: -len(":lexEntry")]
    return raw, None


def _target_token(token: str, known_ids: dict, filename: str, lineno: int):
    if token in known_ids:
        return token
    if _is_id_like(token):
        raise DanglingReference(
            f"reference to undefined id {token!r}", filename, lineno
        )
    return _parse_entity(token)


def _parse_line(raw: str, known_ids: dict, filename: str, lineno: int) -> AnnotationLine:
    m = _match_prop(raw)
    if m:
        line_id, target, prop = m
        if prop != "substantial":
            raise MalformedLine(
                f"prop lines carry exactly p(<id>, substantial), got {prop!r}",
                filename,
                lineno,
            )
        if target not in known_ids:
            raise DanglingReference(
                f"reference to undefined id {target!r}", filename, lineno
            )
        return AnnotationLine(
            line_id=line_id,
            kind="prop",
            source=None,
            attitude="substantial",
            polarity=None,
            anchor="",
            lex_key=None,
            target=target,
            lineno=lineno,
        )

    m = _match_line(raw)
    if m is None:
        raise MalformedLine(f"unrecognized annotation syntax: {raw!r}", filename, lineno)
    line_id, kind, body = m
    fields = _split_top_commas(body)
    if len(fields) not in (3, 4):
        raise MalformedLine(
            f"expected 3 or 4 comma-separated fields, got {len(fields)}", filename, lineno
        )
    if len(fields) == 4 and kind != "gfbf":
        raise MalformedLine("only gfbf lines take a second-role field", filename, lineno)

    am = _match_attitude(fields[1])
    if am is None:
        raise MalformedLine(f"bad attitude/effect field {fields[1]!r}", filename, lineno)
    head, raw_anchor = am
    anchor, lex_key = _parse_anchor(raw_anchor)
    if len(head) == 1:
        attitude, polarity = head[0], None
    else:
        polarity, attitude = head

    if kind in ("gfbf", "influencer"):
        if polarity is not None:
            raise MalformedLine(f"{kind} lines carry no polarity", filename, lineno)
        if kind == "gfbf" and attitude not in EFFECTS:
            raise MalformedLine(f"gfbf effect must be goodFor/badFor", filename, lineno)
        if kind == "influencer" and attitude not in INFLUENCER_KINDS:
            raise MalformedLine("influencer kind must be retain/reverse", filename, lineno)
    else:
        if polarity is None or attitude not in ATT_TYPES:
            raise MalformedLine(
                f"{kind} lines need 'positive|negative <attitude-type>'", filename, lineno
            )
        if kind == "evidence" and attitude not in EVIDENCE_ATTS:
            raise MalformedLine(
                "evidence attitude must be intends, believesTrue or sentiment",
                filename,
                lineno,
            )

    if kind == "evidence" and fields[0] == "none":
        source = None
    else:
        source = _parse_entity(fields[0])

    target = _target_token(fields[2], known_ids, filename, lineno)
    role2 = _parse_entity(fields[3]) if len(fields) == 4 else None
    return AnnotationLine(
        line_id=line_id,
        kind=kind,
        source=source,
        attitude=attitude,
        polarity=polarity,
        anchor=anchor,
        lex_key=lex_key,
        target=target,
        role2=role2,
        lineno=lineno,
    )


def _mark(line_id: str, by_id: dict[str, AnnotationLine], reachable: set[str]) -> None:
    """Mark a line and the lines below it reachable.  Not a closure: a recursive
    closure refers to itself, a reference cycle left by every sentence."""
    if line_id in reachable:
        return
    reachable.add(line_id)
    ln = by_id[line_id]
    if isinstance(ln.target, str):
        _mark(ln.target, by_id, reachable)


def _check_roots(sent: SentenceAnnotation, filename: str) -> None:
    # A line dominates the line its target refers to; every non-evidence,
    # non-prop line must be reachable from a writer-sourced sentiment or
    # believesTrue line.
    by_id = {ln.line_id: ln for ln in sent.lines}
    reachable: set[str] = set()
    for ln in sent.lines:
        if (
            ln.kind in ("subjectivity", "privateState")
            and ln.source is not None
            and ln.source.name == WRITER
            and ln.attitude in ("sentiment", "believesTrue")
        ):
            _mark(ln.line_id, by_id, reachable)
    for ln in sent.lines:
        if ln.kind in ("evidence", "prop"):
            continue
        if ln.line_id not in reachable:
            raise RootConstraintViolation(
                f"line {ln.line_id} is not dominated by a writer-sourced "
                f"sentiment or believesTrue line",
                filename,
                ln.lineno,
            )


def parse_document(text: str, filename: str = "<input>") -> AnnotationDoc:
    """Parse an annotation document; raises InputError subclasses on bad input."""
    doc = AnnotationDoc(source_name=filename)
    block: list[tuple[int, str]] = []

    def flush(block: list[tuple[int, str]]) -> None:
        if not block:
            return
        first_lineno, first = block[0]
        quote = first[:1]
        if quote not in _QUOTES:
            raise MalformedLine(
                "sentence block must start with a quoted sentence", filename, first_lineno
            )
        sentence_text = first[1:]
        if sentence_text.endswith(_QUOTES[quote]):
            sentence_text = sentence_text[: -len(_QUOTES[quote])]
        sent = SentenceAnnotation(text=sentence_text)
        known: dict[str, AnnotationLine] = {}
        for lineno, raw in block[1:]:
            ln = _parse_line(raw, known, filename, lineno)
            if ln.line_id in known:
                raise DuplicateId(f"duplicate id {ln.line_id!r}", filename, lineno)
            known[ln.line_id] = ln
            sent.lines.append(ln)
        _check_roots(sent, filename)
        doc.sentences.append(sent)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            block.append((lineno, raw.strip()))
        else:
            flush(block)
            block = []
    flush(block)
    return doc


def render_entity(ref: EntityRef) -> str:
    out = ref.name
    if ref.thing:
        out += ":thing"
    if ref.lex_key:
        out += f" ({ref.lex_key}:lexEntry)"
    return out


def render_document(doc: AnnotationDoc) -> str:
    """Render a document back into parseable text (round-trip safe)."""
    blocks = []
    for sent in doc.sentences:
        lines = [f'"{sent.text}"']
        for ln in sent.lines:
            if ln.kind == "prop":
                lines.append(f"{ln.line_id} p({ln.target},substantial)")
                continue
            att = ln.attitude if ln.polarity is None else f"{ln.polarity} {ln.attitude}"
            anchor = ln.anchor
            if ln.lex_key:
                anchor = f"{anchor},{ln.lex_key}:lexEntry" if anchor else f"{ln.lex_key}:lexEntry"
            if anchor:
                att = f"{att} ({anchor})"
            source = "none" if ln.source is None else render_entity(ln.source)
            target = ln.target if isinstance(ln.target, str) else render_entity(ln.target)
            fields = [source, att, target]
            if ln.role2 is not None:
                fields.append(render_entity(ln.role2))
            lines.append(f"{ln.line_id} {ln.kind} <{', '.join(fields)}>")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


class GfbfEntry(Record):
    __slots__ = ()
    _fields = ("effect", "role2_effect")

    def __new__(cls, effect: str, role2_effect: str | None = None):
        return tuple.__new__(cls, (effect, role2_effect))


class Lexicon:
    __slots__ = ("connotation", "gfbf_entries", "influencers")

    def __init__(self, connotation: dict[str, str] | None = None,
                 gfbf_entries: dict[str, GfbfEntry] | None = None,
                 influencers: dict[str, str] | None = None):
        self.connotation = {} if connotation is None else connotation
        self.gfbf_entries = {} if gfbf_entries is None else gfbf_entries
        self.influencers = {} if influencers is None else influencers


def parse_lexicon(text: str, filename: str = "<lexicon>") -> Lexicon:
    """Parse the line-oriented lexicon format.

    Records: ``conn <key> <positive|negative>``,
    ``gfbf <key> <goodFor|badFor> [role2=<goodFor|badFor>]``,
    ``infl <key> <retain|reverse>``.  Keys may contain spaces.
    """
    lex = Lexicon()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        rtype = parts[0]
        if rtype == "conn":
            if len(parts) < 3 or parts[-1] not in POLARITIES:
                raise MalformedRecord(f"bad conn record: {line!r}", filename, lineno)
            key = " ".join(parts[1:-1])
            if key in lex.connotation:
                raise DuplicateKey(f"duplicate conn key {key!r}", filename, lineno)
            lex.connotation[key] = parts[-1]
        elif rtype == "infl":
            if len(parts) < 3 or parts[-1] not in INFLUENCER_KINDS:
                raise MalformedRecord(f"bad infl record: {line!r}", filename, lineno)
            key = " ".join(parts[1:-1])
            if key in lex.influencers:
                raise DuplicateKey(f"duplicate infl key {key!r}", filename, lineno)
            lex.influencers[key] = parts[-1]
        elif rtype == "gfbf":
            role2 = None
            body = parts[1:]
            if body and body[-1].startswith("role2="):
                role2 = body[-1][len("role2=") :]
                body = body[:-1]
                if role2 not in EFFECTS:
                    raise MalformedRecord(f"bad role2 effect: {line!r}", filename, lineno)
            if len(body) < 2 or body[-1] not in EFFECTS:
                raise MalformedRecord(f"bad gfbf record: {line!r}", filename, lineno)
            key = " ".join(body[:-1])
            if key in lex.gfbf_entries:
                raise DuplicateKey(f"duplicate gfbf key {key!r}", filename, lineno)
            lex.gfbf_entries[key] = GfbfEntry(body[-1], role2)
        else:
            raise MalformedRecord(f"unknown record type {rtype!r}", filename, lineno)
    return lex
