import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from opine.cli import main

from test_rules import line_orders
from test_seminaive import CHAIN_TARGET_DOCUMENT, VARIANT_CLASH_DOCUMENT

CORPUS = Path(__file__).parent / "corpus"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basic_run(capsys):
    code, out, err = run_cli(
        capsys, "--input", CORPUS / "moveon.ann", "--lexicon", CORPUS / "base.lex"
    )
    assert code == 0 and err == ""
    assert "writer positive sentiment" in out
    assert "Senator McCain" in out


def test_by_spaces_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--input", CORPUS / "tree.ann", "--lexicon", CORPUS / "base.lex",
        "--by-spaces",
    )
    assert code == 0
    assert "writer +B mother -S]" in out
    assert "From Input:" in out


def test_trace_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--input", CORPUS / "wars.ann", "--lexicon", CORPUS / "base.lex", "--trace"
    )
    assert code == 0
    assert "rule10" in out and "rule8" in out


def test_empty_input_succeeds(capsys):
    code, out, err = run_cli(capsys, "--input", CORPUS / "empty.ann")
    assert code == 0 and out == "" and err == ""


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ann"
    bad.write_text('"Orphan."\nE1 gfbf <a, goodFor (x), b>\n')
    code, out, err = run_cli(capsys, "--input", bad)
    assert code == 1
    assert "RootConstraintViolation" in err
    assert str(bad) in err and ":2:" in err


def test_json_export_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out_path in (out1, out2):
        code, _, _ = run_cli(
            capsys, "--input", CORPUS / "taxes.ann", "--lexicon", CORPUS / "base.lex",
            "--json", out_path,
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["format_version"] == 2
    assert len(payload["sentences"]) == 1


def test_text_output_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "--input", CORPUS / "blooming.ann", "--lexicon", CORPUS / "base.lex",
            "--by-spaces", "--trace",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_whatif_mode(capsys):
    code, out, _ = run_cli(
        capsys, "--input", CORPUS / "moveon.ann", "--lexicon", CORPUS / "base.lex",
        "--what-if", "S1=positive",
    )
    assert code == 0
    assert "only in original:" in out and "only in what-if:" in out
    assert "(ps writer sentiment positive Senator McCain)" in out
    assert "(ps writer sentiment negative Senator McCain)" in out


def test_whatif_bad_spec(capsys):
    code, _, err = run_cli(
        capsys, "--input", CORPUS / "moveon.ann", "--what-if", "S1positive"
    )
    assert code == 1 and "what-if" in err


@pytest.mark.parametrize("spec", ["=positive", "S1=", " = ", "=", ""],
                         ids=["no-line", "no-polarity", "blank", "bare", "empty"])
def test_whatif_empty_part(capsys, spec):
    code, out, err = run_cli(capsys, "--input", CORPUS / "moveon.ann", "--what-if", spec)
    assert (code, out, err) == (1, "", "error: --what-if expects LINE=positive|negative\n")


@pytest.mark.parametrize("flags", [["--json", "out.json"], ["--trace"], ["--by-spaces"],
                                   ["--json", "out.json", "--trace", "--by-spaces"]],
                         ids=["json", "trace", "by-spaces", "all"])
def test_whatif_rejects_the_output_flags(tmp_path, capsys, flags):
    argv = [str(tmp_path / a) if a == "out.json" else a for a in flags]
    code, out, err = run_cli(capsys, "--input", CORPUS / "moveon.ann",
                             "--what-if", "S1=negative", *argv)
    given = ", ".join(a for a in flags if a.startswith("--"))
    assert (code, out, err) == (1, "", f"error: --what-if prints only the diff; drop {given}\n")
    assert not (tmp_path / "out.json").exists()


def test_whatif_missing_line(capsys):
    path = CORPUS / "moveon.ann"
    code, out, err = run_cli(capsys, "--input", path, "--what-if", "S9=positive")
    assert (code, out, err) == (1, "", f"error: no line S9 in {path}\n")


def test_rule_order_flag(capsys):
    order = "rule5agent,rule5source,rule10,rule9,rule7,rule6,rule4,rule3.3,rule3.2,rule3.1,rule2,rule1,rule8"
    code, out, _ = run_cli(
        capsys, "--input", CORPUS / "moveon.ann", "--rule-order", order
    )
    assert code == 0
    assert "Senator McCain" in out


def test_rule_order_unknown_name(capsys):
    code, _, err = run_cli(
        capsys, "--input", CORPUS / "moveon.ann", "--rule-order", "ruleX"
    )
    assert code == 1 and "unknown rule names" in err


@pytest.mark.parametrize("order", [",", ""], ids=["comma", "empty"])
def test_rule_order_naming_no_rule(capsys, order):
    code, out, err = run_cli(
        capsys, "--input", CORPUS / "moveon.ann", "--rule-order", order
    )
    assert (code, out, err) == (1, "", "error: --rule-order names no rules\n")


def test_extended_belief_spaces_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--input", CORPUS / "judge.ann", "--by-spaces", "--extended-belief-spaces"
    )
    assert code == 0
    assert "writer +B mother +B the judge +B]" in out


def test_max_iterations_flag(capsys):
    code, _, err = run_cli(
        capsys, "--input", CORPUS / "taxes.ann", "--max-iterations", "1"
    )
    assert code == 2
    assert "internal error" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_iterations_below_one_is_an_error(capsys, cap):
    code, out, err = run_cli(
        capsys, "--input", CORPUS / "taxes.ann", "--max-iterations", cap
    )
    assert code == 1 and out == ""
    assert err == f"error: --max-iterations must be at least 1, got {cap}\n"


def test_unreadable_input_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.ann"
    code, out, err = run_cli(capsys, "--input", missing)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_unreadable_lexicon_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.lex"
    code, out, err = run_cli(capsys, "--input", CORPUS / "moveon.ann", "--lexicon", missing)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_unwritable_json_path_is_an_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.json"
    code, _, err = run_cli(capsys, "--input", CORPUS / "moveon.ann", "--json", target)
    assert code == 1 and not target.exists()
    assert err.startswith("error: ") and str(target) in err


def test_rule_order_cannot_place_precondition_next_to_its_opposite(tmp_path, capsys):
    # Rule 2 fires on S19 in [writer +S], whose belief variant [writer +B]
    # already holds the opposite sentiment placed there by rule 3.1.  The
    # variant is blocked instead of receiving the precondition.
    doc = tmp_path / "variant.ann"
    doc.write_text(
        '"A random sentence."\n'
        "E1 gfbf <alice, goodFor (x1), dave>\n"
        "E2 gfbf <carol, badFor (x2), dave>\n"
        "S19 subjectivity <alice, negative sentiment (w), E1>\n"
        "B19 privateState <writer, positive sentiment (w), S19>\n"
        "B29 privateState <writer, negative sentiment (w), E2>\n"
    )
    order = ("rule5source,rule10,rule5agent,rule2,rule6,rule9,rule3.3,rule3.2,"
             "rule7,rule8,rule4,rule3.1,rule1")
    code, _, err = run_cli(capsys, "--input", doc, "--rule-order", order, "--trace")
    assert code == 0 and err == ""


def test_chain_placed_at_the_writer_level_is_blocked_by_a_clash_below_it(tmp_path, capsys):
    # Rule 3.1 would place writer -S (dave +intends E1) as a root, putting its
    # target into [writer -S] next to dave -intends E1.  The placement is
    # blocked instead of reaching the consistency check.
    doc = tmp_path / "chain.ann"
    doc.write_text(CHAIN_TARGET_DOCUMENT)
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex",
                             "--trace")
    assert code == 0 and err == ""
    assert "space-contradiction" in out


def test_belief_variant_is_blocked_by_a_placement_of_its_own_fire(tmp_path, capsys):
    # One fire places alice -S E1 into [writer +B alice -S], which puts
    # alice -S (alice -S E1) into [writer +B].  The belief variant [writer +B]
    # would then receive the precondition alice +S (alice -S E1); it is
    # blocked instead of reaching the consistency check.
    doc = tmp_path / "variant.ann"
    doc.write_text(VARIANT_CLASH_DOCUMENT)
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex",
                             "--trace")
    assert code == 0 and err == ""
    assert "blocked in space [writer +B]: space-contradiction" in out


CONTRADICTORY_INPUTS = {
    # E1 and E2 are one event once hash-consed.
    "same-event": (
        "E1 gfbf <p0, goodFor (x1), p1>\n"
        "E2 gfbf <p0, goodFor (x2), p1>\n"
        "S1 subjectivity <p3, positive sentiment (s1), E1>\n"
        "S2 subjectivity <p3, negative sentiment (s2), E2>\n"
    ),
    # Both influencer chains compose into the event (a goodFor c).
    "composed-event": (
        "E1 gfbf <b, goodFor (x1), c>\n"
        "E2 gfbf <d, badFor (x2), c>\n"
        "I1 influencer <a, retain (i1), E1>\n"
        "I2 influencer <a, reverse (i2), E2>\n"
        "S1 subjectivity <p3, positive sentiment (s1), I1>\n"
        "S2 subjectivity <p3, negative sentiment (s2), I2>\n"
    ),
}


@pytest.mark.parametrize("events", CONTRADICTORY_INPUTS.values(), ids=CONTRADICTORY_INPUTS)
def test_contradictory_input_names_both_lines(tmp_path, capsys, events):
    # S1 and S2 give p3 both polarities toward one event inside [writer +B].
    doc = tmp_path / "clash.ann"
    doc.write_text(
        '"Two lines, one event."\n' + events
        + "B1 privateState <writer, positive believesTrue (b1), S1>\n"
        "B2 privateState <writer, positive believesTrue (b2), S2>\n"
    )
    lines = doc.read_text().splitlines()
    s1 = 1 + next(i for i, line in enumerate(lines) if line.startswith("S1 "))
    code, out, err = run_cli(capsys, "--input", doc)
    assert code == 1 and out == ""
    assert "ContradictoryInput" in err and "[writer +B]" in err
    assert f"{doc}:{s1}:" in err and f"{doc}:{s1 + 1})" in err


def test_influencer_of_the_other_lexicon_kind_is_an_input_error(tmp_path, capsys):
    # base.lex records "infl fail reverse"; a retainer keyed on it is rejected
    # at its own line, and the reverser the corpus writes is accepted.
    virus = (CORPUS / "virus.ann").read_text()
    doc = tmp_path / "virus.ann"
    doc.write_text(virus.replace("reverse (failed,fail:lexEntry)", "retain (failed,fail:lexEntry)"))
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex")
    assert code == 1 and out == ""
    assert err.startswith(f"{doc}:3: LexiconMismatch: I1 is a retain influencer")
    assert "'fail' is reverse" in err
    code, _, err = run_cli(capsys, "--input", CORPUS / "virus.ann",
                           "--lexicon", CORPUS / "base.lex")
    assert code == 0 and err == ""


def test_gfbf_of_the_other_lexicon_effect_is_an_input_error(tmp_path, capsys):
    # base.lex records "gfbf attack badFor"; a goodFor line keyed on it is
    # rejected at its own line, and the badFor line the corpus writes is accepted.
    moveon = (CORPUS / "moveon.ann").read_text()
    doc = tmp_path / "moveon.ann"
    doc.write_text(moveon.replace("badFor (attack,attack:lexEntry)",
                                  "goodFor (attack,attack:lexEntry)"))
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex")
    assert code == 1 and out == ""
    assert err.startswith(f"{doc}:2: LexiconMismatch: E1 is a goodFor gfbf")
    assert "'attack' is badFor" in err
    code, _, err = run_cli(capsys, "--input", CORPUS / "moveon.ann",
                           "--lexicon", CORPUS / "base.lex")
    assert code == 0 and err == ""


def test_input_nesting_too_deeply_is_an_error(tmp_path, capsys):
    # Nested lines are walked recursively, so a chain deeper than the
    # recursion limit fails at parse, before any inference.
    depth = sys.getrecursionlimit() + 200
    lines = ['"Deep."', "E1 gfbf <bob, goodFor (x1), carol>",
             "S1 subjectivity <alice, positive sentiment (w), E1>"]
    lines += [f"S{i} subjectivity <alice, positive sentiment (w), S{i - 1}>"
              for i in range(2, depth + 1)]
    lines.append(f"B1 privateState <writer, positive believesTrue (w), S{depth}>")
    doc = tmp_path / "deep.ann"
    doc.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_a_second_role_that_is_the_event_itself_is_not_attached(tmp_path, capsys):
    # The lexicon makes A, E1's second-role filler, badFor B: that is E1
    # itself, which keyed on itself would make the graph cyclic.
    lex = tmp_path / "rob.lex"
    lex.write_text("gfbf rob badFor role2=badFor\n")
    doc = tmp_path / "rob.ann"
    doc.write_text('"A robs B."\n'
                   "E1 gfbf <A, badFor (rob,rob:lexEntry), B, A>\n"
                   "S1 subjectivity <writer, negative sentiment (x), E1>\n")
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", lex, "--trace")
    assert code == 0 and err == ""
    assert "A rob B" in out and "which is" not in out and "extra-role" not in out
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", lex,
                             "--what-if", "S1=positive")
    assert code == 0 and err == ""
    assert "only in original:\n  (agree writer A negative (px isBad B))" in out
    assert "(ps writer sentiment positive (gfbf A badFor B))" in out


_DEPRIVED = ("E1 gfbf <they, badFor (deprived,deprive:lexEntry), him, it>\n"
             "S1 subjectivity <writer, negative sentiment (w), E1>\n")
_ATTACKED = ("E2 gfbf <they, badFor (attacked,attack:lexEntry), him>\n"
             "S2 subjectivity <writer, negative sentiment (w), E2>\n")


@pytest.mark.parametrize("lines", [_DEPRIVED + _ATTACKED, _ATTACKED + _DEPRIVED],
                         ids=["second-role-first", "second-role-last"])
def test_a_second_role_reads_its_own_lines_lexicon_entry(tmp_path, capsys, lines):
    # Both lines are one node; the role2 line's deprive entry gives it the
    # second role, whatever key the other line names.
    doc = tmp_path / "restated.ann"
    doc.write_text('"They deprived him of it and attacked him."\n' + lines)
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex",
                             "--trace")
    assert code == 0 and err == ""
    assert "it; which is goodFor him" in out and "extra-role" in out


def test_a_second_role_without_a_lexicon_entry_borrows_none(tmp_path, capsys):
    # A role2 line with no (key:lexEntry) expands nothing, restated by a
    # deprive line or not.
    alone = ('"They deprived him of it."\n'
             + _DEPRIVED.replace("deprived,deprive:lexEntry", "deprived"))
    restated = alone + ("E2 gfbf <they, badFor (deprived,deprive:lexEntry), him>\n"
                        "S2 subjectivity <writer, negative sentiment (w), E2>\n")
    outputs = []
    for name, text in (("alone", alone), ("restated", restated)):
        doc = tmp_path / f"{name}.ann"
        doc.write_text(text)
        outputs.append(run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex",
                               "--trace", "--by-spaces"))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert code == 0 and err == "" and "which is" not in out


_ONE_EVENT = ('"A sentence."\n'
              "E1 gfbf <a, badFor (x), b>\n"
              "S1 subjectivity <c, negative sentiment (w), E1>\n"
              "B1 privateState <writer, positive believesTrue (w), S1>\n")
_EVENT_STATED_ONCE = ('"A sentence."\n'
                      "E1 gfbf <the leader, badFor (deprived,deprive:lexEntry), the children,"
                      " food:thing>\n"
                      "S1 subjectivity <writer, negative sentiment (w), E1>\n")
_RESTATED_EVENT = (_EVENT_STATED_ONCE
                   + "E2 gfbf <the leader, badFor (deprived,deprive:lexEntry), the children,"
                   " {filler}:thing>\n"
                   "S2 subjectivity <writer, negative sentiment (w), E2>\n")

# Lines the node constructors reject, with the line the error names; None
# marks the one document that is well formed.  Each ended in an internal error,
# except a prop on a line that is no attitude, which was ignored.
ILL_TYPED_INPUTS = {
    "prop-on-a-sentiment": (_ONE_EVENT + "P1 p(S1,substantial)\n", 5),
    "prop-on-a-belief-off-gfbf": (_ONE_EVENT + "P1 p(B1,substantial)\n", 5),
    "intends-off-gfbf": (_ONE_EVENT + "I1 privateState <c, positive intends (w), S1>\n"
                         "B2 privateState <writer, positive believesTrue (w), I1>\n", 5),
    "believes-should-off-gfbf": (
        _ONE_EVENT + "I1 privateState <c, positive believesShould (w), S1>\n"
        "B2 privateState <writer, positive believesTrue (w), I1>\n", 5),
    "evidence-on-a-private-state": (
        _ONE_EVENT + 'V1 evidence <none, positive intends (""), S1>\n', 5),
    "evidence-on-an-entity": (_ONE_EVENT + 'V1 evidence <none, positive intends (""), b>\n', 5),
    "gfbf-on-a-line": (_ONE_EVENT + "E2 gfbf <d, goodFor (y), E1>\n"
                       "B2 privateState <writer, positive believesTrue (w), E2>\n", 5),
    "private-state-on-an-evidence-line": (
        _ONE_EVENT + 'V1 evidence <none, positive intends (""), E1>\n'
        "S2 subjectivity <c, positive sentiment (w), V1>\n"
        "B2 privateState <writer, positive believesTrue (w), S2>\n", 6),
    "thing-as-a-source": (_ONE_EVENT.replace("<c,", "<rock:thing,"), 3),
    "influencer-on-a-private-state": (
        _ONE_EVENT + "I1 influencer <d, retain (x), S1>\n"
        "B2 privateState <writer, positive sentiment (w), I1>\n", 5),
    "prop-on-a-gfbf-line": (_ONE_EVENT + "P1 p(E1,substantial)\n", 5),
    "prop-on-an-evidence-line": (_ONE_EVENT + 'V1 evidence <none, positive intends (""), E1>\n'
                                 "P1 p(V1,substantial)\n", 6),
    "prop-on-a-prop-line": (
        _ONE_EVENT + "B2 privateState <writer, positive believesTrue (w), E1>\n"
        "P1 p(B2,substantial)\nP2 p(P1,substantial)\n", 7),
    "second-role-restated-with-another-filler": (_RESTATED_EVENT.format(filler="water"), 4),
    "second-role-restated-with-the-same-filler": (_RESTATED_EVENT.format(filler="food"), None),
}


@pytest.mark.parametrize("text, lineno", ILL_TYPED_INPUTS.values(), ids=ILL_TYPED_INPUTS)
def test_an_ill_typed_line_is_an_input_error_at_its_line(tmp_path, capsys, text, lineno):
    doc = tmp_path / "ill.ann"
    argv = ("--input", doc, "--lexicon", CORPUS / "base.lex", "--trace")
    doc.write_text(text)
    code, out, err = run_cli(capsys, *argv)
    if lineno is None:  # the restatement adds nothing
        doc.write_text(_EVENT_STATED_ONCE)
        assert (code, out, err) == run_cli(capsys, *argv)
        assert code == 0 and "food; which is goodFor the children" in out
    else:
        assert code == 1, err
        assert err.startswith(f"{doc}:{lineno}: MalformedLine: "), err
    assert "<Node" not in err  # an entity is named by its text


_WAR_LINES = ("E1 gfbf <they, badFor (ended), war (war:lexEntry)>\n"
              "S1 subjectivity <writer, negative sentiment (w), E1>\n")
_ATTACK_LINES = ("E2 gfbf <we, goodFor (x), war (attack:lexEntry)>\n"
                 "S2 subjectivity <writer, positive sentiment (w), E2>\n")


@pytest.mark.parametrize("first, second", [(_WAR_LINES, _ATTACK_LINES),
                                           (_ATTACK_LINES, _WAR_LINES)],
                         ids=["war-first", "attack-first"])
def test_an_entity_named_with_two_keys_is_an_input_error(tmp_path, capsys, first, second):
    # rule10 reads an entity's connotation from its key, so with two keys its
    # result would depend on which line comes last: it fired on neither event
    # in one order and on both in the other.
    doc = tmp_path / "two-keys.ann"
    doc.write_text('"A war."\n' + first + second)
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex", "--trace")
    assert code == 1 and out == "", err
    assert err.startswith(f"{doc}:4: MalformedLine: E"), err
    assert "war is named with" in err, err


def test_an_entity_named_again_with_its_key_is_legal(tmp_path, capsys):
    doc = tmp_path / "one-key.ann"
    doc.write_text('"A war."\n' + _WAR_LINES + _ATTACK_LINES.replace("attack:", "war:"))
    code, out, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex", "--trace")
    assert code == 0 and err == "", err
    assert out.count("rule10") == 2, out


def test_rule5source_carries_each_attitude_in_either_line_order(tmp_path, capsys):
    # The writer's sentiment toward Mayor reaches both of Mayor's attitudes,
    # whichever line states its attitude first.
    doc = tmp_path / "two-attitudes.ann"
    for text in line_orders("rule5source"):
        doc.write_text(text)
        code, out, err = run_cli(capsys, "--input", doc)
        assert code == 0 and err == "", err
        for attitude, event in (("positive", "a x b"), ("negative", "a y c")):
            conclusion = (rf"\d+ writer negative sentiment\n  \d+ Mayor {attitude} sentiment\n"
                          rf"    \d+ {event}\n")
            assert re.search(conclusion, out), (text, out)


def test_an_inanimate_source_is_named_by_its_text(tmp_path, capsys):
    doc = tmp_path / "ill.ann"
    doc.write_text(ILL_TYPED_INPUTS["thing-as-a-source"][0])
    code, _, err = run_cli(capsys, "--input", doc, "--lexicon", CORPUS / "base.lex")
    assert (code, err) == (1, f"{doc}:3: MalformedLine: S1: private-state source must be"
                              " animate: rock\n")


def with_bom(path, tmp_path):
    """A copy of the file saved with a UTF-8 byte-order mark."""
    copy = tmp_path / path.name
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


@pytest.mark.parametrize("bom_in", ["input", "lexicon"])
def test_a_byte_order_mark_is_not_part_of_the_file(tmp_path, capsys, bom_in):
    files = {"input": CORPUS / "moveon.ann", "lexicon": CORPUS / "base.lex"}
    expected = run_cli(capsys, "--input", files["input"], "--lexicon", files["lexicon"],
                       "--trace", "--by-spaces")
    files[bom_in] = with_bom(files[bom_in], tmp_path)
    got = run_cli(capsys, "--input", files["input"], "--lexicon", files["lexicon"],
                  "--trace", "--by-spaces")
    assert expected[0] == 0 and expected[2] == ""
    assert got == expected


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "opine", "--input", str(CORPUS / "moveon.ann")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Senator McCain" in proc.stdout
