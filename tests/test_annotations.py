import random
import re
from collections import Counter
from pathlib import Path

import pytest

from opine import (
    DanglingReference,
    DuplicateId,
    DuplicateKey,
    MalformedLine,
    MalformedRecord,
    RootConstraintViolation,
    parse_document,
    parse_lexicon,
    render_document,
)
from opine.annotations import (
    ATT_TYPES,
    EFFECTS,
    EVIDENCE_ATTS,
    INFLUENCER_KINDS,
    AnnotationLine,
    EntityRef,
    _parse_anchor,
    _parse_line,
    _split_top_commas,
)

CORPUS = Path(__file__).parent / "corpus"

MOVEON = """\
"Is it no surprise then that MoveOn would attack Senator McCain.!?"
E1 gfbf <MoveOn, badFor (attack,attack:lexEntry), Senator McCain>
S1 subjectivity <writer, negative sentiment (surprise & then & the question), E1>
"""


def test_parse_moveon_block():
    doc = parse_document(MOVEON)
    assert len(doc.sentences) == 1
    sent = doc.sentences[0]
    assert sent.text.startswith("Is it no surprise")
    e1, s1 = sent.lines
    assert e1.kind == "gfbf"
    assert e1.source.name == "MoveOn"
    assert e1.attitude == "badFor"
    assert e1.anchor == "attack"
    assert e1.lex_key == "attack"
    assert e1.target.name == "Senator McCain"
    assert s1.kind == "subjectivity"
    assert s1.source.name == "writer"
    assert (s1.polarity, s1.attitude) == ("negative", "sentiment")
    assert s1.target == "E1"


def test_parse_empty_document():
    doc = parse_document("")
    assert doc.sentences == []


def test_root_constraint_violation():
    text = '"A lonely event."\nE1 gfbf <a, goodFor (x), b>\n'
    with pytest.raises(RootConstraintViolation):
        parse_document(text)


def test_dangling_reference():
    text = '"Bad ref."\nS1 subjectivity <writer, negative sentiment (x), E9>\n'
    with pytest.raises(DanglingReference):
        parse_document(text)


def test_forward_reference_rejected():
    text = (
        '"Order matters."\n'
        "S1 subjectivity <writer, negative sentiment (x), E1>\n"
        "E1 gfbf <a, goodFor (y), b>\n"
    )
    with pytest.raises(DanglingReference):
        parse_document(text)


def test_duplicate_id():
    text = (
        '"Twice."\n'
        "E1 gfbf <a, goodFor (x), b>\n"
        "E1 gfbf <a, badFor (y), b>\n"
        "S1 subjectivity <writer, negative sentiment (z), E1>\n"
    )
    with pytest.raises(DuplicateId):
        parse_document(text)


def test_malformed_line():
    with pytest.raises(MalformedLine):
        parse_document('"Broken."\nE1 gfbf MoveOn badFor McCain\n')


def test_prop_must_be_substantial():
    text = (
        '"Prop check."\n'
        "E1 gfbf <a, goodFor (x), b>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), E1>\n"
        "Prop1 p(B1,flimsy)\n"
    )
    with pytest.raises(MalformedLine):
        parse_document(text)


def test_evidence_attitude_restricted():
    text = (
        '"Evidence check."\n'
        "E1 gfbf <a, goodFor (x), b>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), E1>\n"
        "V1 evidence <none, positive believesShould (y), E1>\n"
    )
    with pytest.raises(MalformedLine):
        parse_document(text)


def test_thing_suffix_and_entity_lexentry():
    text = (
        '"Suffixes."\n'
        "E1 gfbf <the tree:thing, badFor (fell on,fall on:lexEntry), wars (war:lexEntry)>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), E1>\n"
    )
    doc = parse_document(text)
    e1 = doc.sentences[0].lines[0]
    assert e1.source.name == "the tree" and e1.source.thing
    assert e1.target.name == "wars" and not e1.target.thing
    assert e1.target.lex_key == "war"
    assert e1.lex_key == "fall on"


def test_unicode_brackets_accepted():
    text = (
        '"Angle brackets."\n'
        "E1 gfbf ⟨MoveOn, badFor (attack), Senator McCain⟩\n"
        "S1 subjectivity ⟨writer, negative sentiment (x), E1⟩\n"
    )
    doc = parse_document(text)
    assert doc.sentences[0].lines[0].target.name == "Senator McCain"


def test_round_trip_corpus(corpus_files):
    for path in corpus_files:
        original = parse_document(path.read_text(), path.name)
        rendered = render_document(original)
        reparsed = parse_document(rendered, path.name)
        assert reparsed == original, path.name


def test_corpus_parses_total(corpus_files):
    for path in corpus_files:
        parse_document(path.read_text(), path.name)


def test_error_location_format():
    text = '"Bad."\nE1 gfbf <a, goodFor (x), b>\n'
    try:
        parse_document(text, "sample.ann")
    except RootConstraintViolation as exc:
        assert str(exc).startswith("sample.ann:2: RootConstraintViolation:")
    else:  # pragma: no cover
        pytest.fail("expected a root-constraint error")


def test_parse_lexicon_records():
    lex = parse_lexicon(
        "conn war negative\n"
        "gfbf deprive badFor role2=goodFor\n"
        "infl fall on reverse\n"
    )
    assert lex.connotation["war"] == "negative"
    entry = lex.gfbf_entries["deprive"]
    assert (entry.effect, entry.role2_effect) == ("badFor", "goodFor")
    assert lex.influencers["fall on"] == "reverse"


def test_parse_lexicon_empty():
    lex = parse_lexicon("")
    assert not lex.connotation and not lex.gfbf_entries and not lex.influencers


def test_parse_lexicon_duplicate_key():
    with pytest.raises(DuplicateKey):
        parse_lexicon("conn war negative\nconn war positive\n")


def test_parse_lexicon_malformed():
    with pytest.raises(MalformedRecord):
        parse_lexicon("conn war sideways\n")
    with pytest.raises(MalformedRecord):
        parse_lexicon("blurb x y\n")


def test_with_polarity_flip():
    doc = parse_document(MOVEON)
    flipped = doc.with_polarity("S1", "positive")
    assert flipped.sentences[0].line("S1").polarity == "positive"
    assert doc.sentences[0].line("S1").polarity == "negative"
    with pytest.raises(KeyError):
        doc.with_polarity("S9", "positive")
    with pytest.raises(ValueError):
        doc.with_polarity("E1", "positive")


# -- the regular-expression parser the str-method matchers replaced -----------
#
# A reference copy: the five patterns and the code that read their groups.
# The two parsers must agree on every line, as an AnnotationLine or as an
# (exception type, message) pair.

_LINE_RE = re.compile(
    r"^(?P<id>\S+)\s+(?P<kind>gfbf|influencer|subjectivity|privateState|evidence)"
    r"\s+[<⟨](?P<body>.*)[>⟩]\s*$"
)
_PROP_RE = re.compile(
    r"^(?P<id>\S+)\s+p\(\s*(?P<target>[^,\s]+)\s*,\s*(?P<prop>[A-Za-z]+)\s*\)\s*$"
)
_ATT_RE = re.compile(
    r"^(?P<head>goodFor|badFor|retain|reverse|"
    r"(?:positive|negative)\s+(?:sentiment|believesTrue|intends|believesShould))"
    r"\s*(?:\((?P<anchor>.*)\))?$"
)
_ENTITY_LEX_RE = re.compile(r"^(?P<name>.*?)\s*\((?P<key>[^()]+):lexEntry\)$")
_ID_LIKE_RE = re.compile(r"^(E|S|B|I|V|Prop)\d+$")


def _reference_entity(token):
    lex_key = None
    m = _ENTITY_LEX_RE.match(token)
    if m:
        token = m.group("name").strip()
        lex_key = m.group("key").strip()
    thing = token.endswith(":thing")
    if thing:
        token = token[: -len(":thing")].strip()
    return EntityRef(token, thing=thing, lex_key=lex_key)


def _reference_parse_line(raw, known_ids, filename, lineno):
    m = _PROP_RE.match(raw)
    if m:
        if m.group("prop") != "substantial":
            raise MalformedLine(
                f"prop lines carry exactly p(<id>, substantial), got {m.group('prop')!r}",
                filename, lineno,
            )
        target = m.group("target")
        if target not in known_ids:
            raise DanglingReference(f"reference to undefined id {target!r}", filename, lineno)
        return AnnotationLine(m.group("id"), "prop", None, "substantial", None, "", None,
                              target, lineno=lineno)

    m = _LINE_RE.match(raw)
    if m is None:
        raise MalformedLine(f"unrecognized annotation syntax: {raw!r}", filename, lineno)
    kind = m.group("kind")
    fields = _split_top_commas(m.group("body"))
    if len(fields) not in (3, 4):
        raise MalformedLine(
            f"expected 3 or 4 comma-separated fields, got {len(fields)}", filename, lineno
        )
    if len(fields) == 4 and kind != "gfbf":
        raise MalformedLine("only gfbf lines take a second-role field", filename, lineno)
    am = _ATT_RE.match(fields[1])
    if am is None:
        raise MalformedLine(f"bad attitude/effect field {fields[1]!r}", filename, lineno)
    head = am.group("head").split()
    anchor, lex_key = _parse_anchor(am.group("anchor"))
    if len(head) == 1:
        attitude, polarity = head[0], None
    else:
        polarity, attitude = head
    if kind in ("gfbf", "influencer"):
        if polarity is not None:
            raise MalformedLine(f"{kind} lines carry no polarity", filename, lineno)
        if kind == "gfbf" and attitude not in EFFECTS:
            raise MalformedLine("gfbf effect must be goodFor/badFor", filename, lineno)
        if kind == "influencer" and attitude not in INFLUENCER_KINDS:
            raise MalformedLine("influencer kind must be retain/reverse", filename, lineno)
    else:
        if polarity is None or attitude not in ATT_TYPES:
            raise MalformedLine(
                f"{kind} lines need 'positive|negative <attitude-type>'", filename, lineno
            )
        if kind == "evidence" and attitude not in EVIDENCE_ATTS:
            raise MalformedLine(
                "evidence attitude must be intends, believesTrue or sentiment", filename, lineno
            )
    source = None if kind == "evidence" and fields[0] == "none" else _reference_entity(fields[0])
    target = fields[2]
    if target not in known_ids:
        if _ID_LIKE_RE.match(target):
            raise DanglingReference(f"reference to undefined id {target!r}", filename, lineno)
        target = _reference_entity(target)
    role2 = _reference_entity(fields[3]) if len(fields) == 4 else None
    return AnnotationLine(m.group("id"), kind, source, attitude, polarity, anchor, lex_key,
                          target, role2, lineno)


def corpus_lines():
    """Every corpus annotation line, stripped, with the ids defined before it."""
    lines = []
    for path in sorted(CORPUS.glob("*.ann")):
        text = path.read_text(encoding="utf-8")
        raws = [raw.strip() for raw in text.splitlines()]
        for sent in parse_document(text, path.name).sentences:
            known = {}
            for ln in sent.lines:
                lines.append((raws[ln.lineno - 1], dict(known)))
                known[ln.line_id] = ln
    return lines


# Pieces the mutations insert or delete: the format's punctuation, whitespace
# that str.strip and \s both take (tab, no-break space), the suffixes, and
# characters that pass isalpha or isdecimal but not isascii.
MUTATION_PIECES = ("(", ")", "<", ">", "⟨", "⟩", ",", ":", " ", "\t", "\xa0", "lexEntry",
                   ":thing", "p(", "١", "٧", "ä", "é", "ж", "1")


def mutate(line, rng):
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(line) + 1)
        roll = rng.random()
        if roll < 0.5:
            line = line[:at] + rng.choice(MUTATION_PIECES) + line[at:]
        elif roll < 0.8:
            line = line[:at] + line[at + rng.randint(1, 3):]
        else:
            piece = rng.choice(MUTATION_PIECES)
            found = line.find(piece, at)
            if found >= 0:
                line = line[:found] + line[found + len(piece):]
    return line.strip()


EDGE_KNOWN = dict.fromkeys(("E1", "S1", "B2"))
EDGE_LINES = (
    "E1 gfbf<a, goodFor (x), b>",
    "E1 gfbf <a, goodFor (x), b> and more",
    "E1 gfbf <a, goodFor (x), b>>",
    "E1 gfbf ⟨a, goodFor (x), b⟩",
    "E1 gfbf ⟨a, goodFor (x), b>",
    "E1 gfbf <>",
    "E1 gfbf <",
    "E1 gfbf",
    "P1 p( B2 , substantial )",
    "P1 p(B2,substantial)x",
    "P1 p(B2,substäntial)",
    "P1 p(B2,substantial1)",
    "P1 p(B 2,substantial)",
    "P1 p(B2,,substantial)",
    "P1 p(B2)",
    "P1 p()",
    "P1 p(B3,substantial)",
    "S2 subjectivity <writer, negative sentiment (x), S١>",
    "S2 subjectivity <writer, negative sentiment (x), Prop٣>",
    "S2 subjectivity <writer, negative sentiment (x), Propx>",
    "S2 subjectivity <writer, negative\xa0sentiment (x), E1>",
    "S2 subjectivity <writer, negative sentiment(x), E1>",
    "S2 subjectivity <writer, negative sentiment (x) (y), E1>",
    "S2 subjectivity <writer, negative sentiment (x) y, E1>",
    "S2 subjectivity <writer, negativesentiment, E1>",
    "E2 gfbf <a (k:lexEntry), goodFor, b ((k):lexEntry)>",
    "E2 gfbf <a ( k :lexEntry), goodFor, (:lexEntry)>",
    "E2 gfbf <a:thing (k:lexEntry), goodFor(x,y:lexEntry), b (a)(k:lexEntry)>",
)


def parse_outcome(parse, raw, known):
    try:
        return parse(raw, known, "f.ann", 7)
    except Exception as exc:
        return type(exc), str(exc)


def disagreements(cases):
    return [
        (raw, mine, reference)
        for raw, known in cases
        if (mine := parse_outcome(_parse_line, raw, known))
        != (reference := parse_outcome(_reference_parse_line, raw, known))
    ]


def outcome_kind(outcome):
    """"line", or the error type and the first word of its message."""
    if isinstance(outcome, AnnotationLine):
        return "line"
    kind, text = outcome
    return f"{kind.__name__} {text.split(': ', 2)[2].split()[0]}"


def test_str_matchers_agree_with_the_regexes_on_the_corpus():
    cases = corpus_lines()
    assert len(cases) > 50
    assert not disagreements(cases)


def test_str_matchers_agree_with_the_regexes_on_edge_lines():
    assert not disagreements([(line, EDGE_KNOWN) for line in EDGE_LINES])


def test_str_matchers_agree_with_the_regexes_on_mutated_lines():
    rng = random.Random(20240610)
    corpus = corpus_lines()
    cases = []
    while len(cases) < 20_000:
        line, known = rng.choice(corpus)
        mutated = mutate(line, rng)
        if mutated:
            cases.append((mutated, known))
    assert not disagreements(cases)
    # The mutations reach every outcome: a parsed line and each kind of error.
    kinds = Counter(outcome_kind(parse_outcome(_reference_parse_line, raw, known))
                    for raw, known in cases)
    assert kinds["line"] > 1000, kinds
    assert {
        "MalformedLine unrecognized",  # neither line shape matched
        "MalformedLine bad",  # the attitude field did not match
        "MalformedLine expected",
        "MalformedLine prop",  # a prop line with a prop other than substantial
        "DanglingReference reference",  # an id-like target defined nowhere
    } <= set(kinds), kinds
