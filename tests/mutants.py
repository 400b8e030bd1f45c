"""Mutation runner: which test file kills which mutant of the engine.

Each mutant is a name plus one edit to a file under ``src/opine``: the exact
old text, which must occur there once, and the new text.  For each mutant
the runner copies ``src/`` into a temporary directory, applies the edit to
the copy, and runs each test file of ``tests/`` on its own against the copy
(``pytest -x``).  A file kills the mutant when a test fails.  It writes
nothing under ``src/`` or ``tests/``: the copy lives in the temporary
directory, and the test runs write no bytecode and no pytest cache.

    python tests/mutants.py            # every mutant; writes MUTANTS.json
    python tests/mutants.py NAME ...   # the named mutants only; writes nothing
    python tests/mutants.py --check    # every old text still matches; runs no test

A mutant whose old text no longer matches once is stale: ``--check`` and a
full run report it and exit 1; it is never skipped.  A full run first runs
every file on an unmutated copy, and stops if one fails there.  The tests
run under ``PYTHONHASHSEED=0``.  Standard library only; pytest must be
importable by the interpreter that runs this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLE = ROOT / "MUTANTS.json"
HASH_SEED = "0"
JOBS = 2  # mutants run at once; the seconds recorded are taken under that load

# Run in the child: import opine from the copy, check that it came from there,
# then run pytest in the same process, so every test sees that module.
_CHILD = """\
import os, sys
src = sys.argv[1]
sys.path.insert(0, src)
import opine
def foreign():
    return [name for name, module in sys.modules.items()
            if (name == "opine" or name.startswith("opine."))
            and not (getattr(module, "__file__", None) or "").startswith(src + os.sep)]
if foreign():
    sys.exit(99)
import pytest
code = pytest.main(sys.argv[2:])
sys.exit(99 if foreign() else code)
"""
_FOREIGN = 99


# why: what the edit breaks; note: for a survivor, what is known of it.
Mutant = namedtuple("Mutant", "name file old new why note", defaults=("",))


MUTANTS = [
    # -- the fixpoint's input stamp and settled bindings ---------------------
    Mutant("constant-stamp", "rules.py",
           "        stamp += len(memberships.get(p.node_id, ())) + (p in writer_level)\n"
           "    return stamp\n",
           "        stamp += len(memberships.get(p.node_id, ())) + (p in writer_level)\n"
           "    return 0\n",
           "the input stamp is always 0, so a binding fires once per run"),
    Mutant("stamp-without-membership-counts", "rules.py",
           "        stamp += len(memberships.get(p.node_id, ())) + (p in writer_level)\n",
           "        stamp += p in writer_level\n",
           "the stamp misses a precondition joining a space"),
    Mutant("stamp-without-writer-level-term", "rules.py",
           "        stamp += len(memberships.get(p.node_id, ())) + (p in writer_level)\n",
           "        stamp += len(memberships.get(p.node_id, ()))\n",
           "the stamp misses a precondition turning writer-level"),
    Mutant("after-fire-stamp", "rules.py",
           "                stamp = _input_stamp(memberships, writer_level, binding.ps)\n"
           "                if binding.stamp == stamp:\n"
           "                    continue\n"
           "                event = fire(rule, binding, g, cfg, reported, iteration)\n",
           "                if binding.stamp == _input_stamp(memberships, writer_level, binding.ps):\n"
           "                    continue\n"
           "                event = fire(rule, binding, g, cfg, reported, iteration)\n"
           "                stamp = _input_stamp(memberships, writer_level, binding.ps)\n",
           "the stamp is taken after the fire, so a fire that changes its own"
           " binding's stamp is not fired again"),
    Mutant("stamp-kept-after-unsettled-block", "rules.py",
           "                binding.stamp = None if unsettled else stamp\n",
           "                binding.stamp = stamp\n",
           "a binding blocked by an unsettled cause is settled anyway"),
    Mutant("no-assumption-basis-settles", "rules.py",
           '_UNSETTLED_CAUSES = ("space-contradiction", "no-assumption-basis")\n',
           '_UNSETTLED_CAUSES = ("space-contradiction",)\n',
           "a missing assumption basis settles the binding"),
    Mutant("space-contradiction-settles", "rules.py",
           '_UNSETTLED_CAUSES = ("space-contradiction", "no-assumption-basis")\n',
           '_UNSETTLED_CAUSES = ("no-assumption-basis",)\n',
           "a space-contradiction block settles the binding"),
    # -- the binding cache (_Bindings) ----------------------------------------
    Mutant("bindings-rebuilt-on-growth", "rules.py",
           "            self.bindings += match(rule, router.g, nodes[self.matched:])\n",
           "            self.bindings = match(rule, router.g, nodes)\n",
           "every binding is built again when nodes are filed under the rule's route,"
           " losing the stamps"),
    Mutant("new-nodes-matched-in-reverse", "rules.py",
           "            self.bindings += match(rule, router.g, nodes[self.matched:])\n",
           "            self.bindings += match(rule, router.g, nodes[self.matched:][::-1])\n",
           "the nodes a pass added are matched last first"),
    Mutant("rule8-matched-by-cursor", "rules.py",
           "            bindings = []\n"
           "            for pair in rule.join(nodes, *sentiments):\n",
           "            bindings = self.bindings\n"
           "            for pair in rule.join(nodes[self.matched and self.matched[0]:],"
           " *sentiments):\n",
           "rule8 pairs only new beliefs with the sentiments, like an unjoined rule"),
    Mutant("rule8-rematched-on-new-beliefs-only", "rules.py",
           "            sizes = (len(nodes), *[len(group) for group in sentiments])\n",
           "            sizes = (len(nodes),)\n",
           "rule8 is matched again only when believesTrue nodes are added"),
    # -- routing (_Router, Rule.target) ----------------------------------------
    Mutant("rule-routed-by-wrong-target", "rules.py",
           '    "rule2": Rule("rule2", _match_rule2, att_type=SENTIMENT, target=(IDEA_OF, None)),\n',
           '    "rule2": Rule("rule2", _match_rule2, att_type=SENTIMENT, target=(GFBF, None)),\n',
           "rule2 is declared over a gfbf, so the fixpoint hands it no sentiment over an"
           " ideaOf"),
    Mutant("rule8-join-skips-thing-objects", "rules.py",
           "_RULE8_SENTIMENTS = ((PRIVATE_STATE, SENTIMENT, ANIM, None),\n"
           "                     (PRIVATE_STATE, SENTIMENT, THING, None))\n",
           "_RULE8_SENTIMENTS = ((PRIVATE_STATE, SENTIMENT, ANIM, None),)\n",
           "the fixpoint's rule8 join gets no sentiment toward a :thing, so a gfbf whose"
           " object is one pairs with nothing"),
    # -- rule5: every input attitude and event ---------------------------------
    Mutant("rule5source-first-attitude-only", "rules.py",
           "        bindings.append(Binding(\"rule5source\", [outer], [assumption], [q]))\n"
           "    return bindings\n",
           "        bindings.append(Binding(\"rule5source\", [outer], [assumption], [q]))\n"
           "    return bindings[:1]\n",
           "rule5source carries only the holder's attitude on the earliest line"),
    # -- the expected-space closure -------------------------------------------
    Mutant("closure-only-in-pass-1", "rules.py",
           "        if cfg.extended_belief_spaces:\n",
           "        if cfg.extended_belief_spaces and iteration == 1:\n",
           "the closure runs in the first pass only"),
    Mutant("closure-first-member-only", "rules.py",
           "        for member in members:\n",
           "        for member in members[:1]:\n",
           "the closure visits the first member of each space only"),
    Mutant("closure-without-clash-check", "rules.py",
           "            if would_contradict(variant, member, g, index) is not None:\n"
           "                continue\n",
           "",
           "the closure places a member without checking for a clash"),
    # -- firing: evidence, logging, the trace event's bookkeeping -------------
    Mutant("evidence-ignored", "rules.py",
           "    if fact.node_type != PRIVATE_STATE or not g.evidence:\n",
           "    if True:\n",
           "no evidence blocks anything"),
    Mutant("log-every-fire", "rules.py",
           "    if len(seen) != known:\n        g.trace.append(event)\n",
           "    g.trace.append(event)\n",
           "_log logs every fire, repeats included"),
    Mutant("log-dedupe-by-rule", "rules.py",
           "    key = binding.fire_key\n",
           "    key = event.rule\n",
           "_log dedupes what a whole rule reported, not what a binding did"),
    Mutant("log-block-without-space", "rules.py",
           "        seen.add(block[2:])\n",
           "        seen.add(block[2:4])\n",
           "_log takes a block in another space as one already reported"),
    Mutant("assumption-nodes-dropped", "rules.py",
           "            assumed = tuple([n.node_id for n in map(g.lookup, binding.assumptions)\n"
           "                             if n is not None])\n",
           "            assumed = ()\n",
           "a fire reports no assumption nodes"),
    # -- spaces: kinds, candidates, placement ---------------------------------
    Mutant("negative-belief-not-inherited", "spaces.py",
           "        self.negative_belief = negative or"
           " (att == BELIEVES_TRUE and pol == NEGATIVE)\n",
           "        self.negative_belief = att == BELIEVES_TRUE and pol == NEGATIVE\n",
           "a space is a negative-belief space only when its last step is one"),
    Mutant("variant-not-inherited", "spaces.py",
           "            self.variant = None if variant is None else variant + (steps[-1],)\n",
           "            self.variant = None\n",
           "a space below a sentiment step has no belief variant"),
    Mutant("variant-from-parent-steps", "spaces.py",
           "            self.variant = (above if variant is None else variant) + (belief,)\n",
           "            self.variant = above + (belief,)\n",
           "a sentiment step's variant keeps the sentiment steps above it"),
    Mutant("candidates-ordered-by-steps", "spaces.py",
           "    ordered = sorted(base, key=lambda s: _order_key(s, index))"
           " if len(base) > 1 else base\n",
           "    ordered = sorted(base)\n",
           "candidate spaces are ordered by their steps alone, not by first root"),
    Mutant("no-variant-dedup", "spaces.py",
           "            if variant[0] not in taken:\n"
           "                taken.append(variant[0])\n"
           "                candidates.append(variant)\n",
           "            candidates.append(variant)\n",
           "a belief variant that is already a candidate is visited again"),
    Mutant("interned-parts-not-created", "spaces.py",
           "                created += fresh\n",
           "",
           "parts interned on the way (ideaOf, p(x)) are not reported as created"),
    Mutant("wrappers-not-seen", "spaces.py",
           "                created += wrappers\n                seen.update(wrappers)\n",
           "                created += wrappers\n",
           "a wrapper a placement created can also be reported as existing"),
    Mutant("placed-top-existing-without-seen", "spaces.py",
           "            if top not in seen:\n"
           "                seen.add(top)\n"
           "                existing.append(top)\n",
           "            existing.append(top)\n",
           "a top is reported as existing once per space"),
    Mutant("place-sources-misaligned", "spaces.py",
           "zip(reversed(steps), reversed(chain))",
           "zip(reversed(steps), chain)",
           "place takes each level's source from the wrong level of the chain"),
    Mutant("membership-keyed-by-walk-steps", "spaces.py",
           "            paths, members, key = inst.paths, inst.members, inst.steps\n",
           "            paths, members, key = inst.paths, inst.members, steps\n",
           "a membership in a space the walk did not create is keyed on the walk's own"
           " step tuple, which then stays alive beside the space's"),
    Mutant("placed-top-no-writer-level-guard", "spaces.py",
           "            return node if node in self.writer_level else None\n",
           "            return node\n",
           "placed_top takes any node as placed at the writer level"),
    Mutant("placed-top-no-role2-guard", "spaces.py",
           "        if path is None or path[-1].target is not node:\n",
           "        if path is None:\n",
           "placed_top accepts a chain ending in a gfbf whose role2 is the node"),
    Mutant("placed-top-no-substantial-guard", "spaces.py",
           "            if link.property is not None:\n                return None\n",
           "            pass\n",
           "placed_top accepts a chain with a substantial link"),
    Mutant("no-chain-clash", "spaces.py",
           "        return _chain_clash(steps, prop, g, index)\n",
           "        return None\n",
           "would_contradict does not look below a chain prop"),
    Mutant("wrapped-level-keeps-polarity", "spaces.py",
           "        polarity = steps[depth - 1][2]\n",
           "",
           "would_contradict probes each wrapper with the prop's own polarity"),
    # -- composition: influencer chains --------------------------------------
    Mutant("no-flip-on-odd-reversers", "composition.py",
           "        if flip:\n            effect = GOOD_FOR if effect == BAD_FOR else BAD_FOR\n",
           "",
           "a chain keeps its terminal's effect whatever its reversers"),
    Mutant("evidence-carried-unflipped", "composition.py",
           "                polarity = opposite_polarity(fact.polarity) if flip"
           " else fact.polarity\n",
           "                polarity = fact.polarity\n",
           "evidence on the terminal keeps its polarity under an odd reverser count"),
    Mutant("evidence-not-retired", "composition.py",
           "            fact.retired = True\n",
           "",
           "evidence on the terminal stays live beside its carried counterpart"),
    Mutant("counterpart-not-rooted", "composition.py",
           "            if holder in g.roots:\n                g.add_root(counterpart)\n",
           "",
           "the counterpart of a root is not made a root"),
    Mutant("nested-holders-not-reached", "composition.py",
           "            mapping[holder] = counterpart\n",
           "",
           "only the direct holders of the outermost influencer get counterparts"),
    Mutant("terminal-not-retired", "composition.py",
           "        if terminal is not new_gfbf:\n            terminal.retired = True\n",
           "",
           "the chain's terminal gfbf stays matchable"),
    Mutant("composed-gfbf-not-from-input", "composition.py",
           "        new_gfbf.from_input = True\n",
           "",
           "a chain's effective gfbf is not marked from input"),
    Mutant("role2-entry-from-first-line", "composition.py",
           "        entry = g.lexicon.gfbf_entries.get(ln.lex_key)\n",
           "        entry = g.lexicon.gfbf_entries.get(g.input_lines[event.node_id].lex_key)\n",
           "a second role reads the lexicon entry of the first line stating its event"),
    # -- the graph ------------------------------------------------------------
    Mutant("attach-role2-after-index", "graph.py",
           "        if self._space_index is not None:\n            raise InvariantViolation(",
           "        if False:\n            raise InvariantViolation(",
           "a second role attached after the space index is built goes missing from"
           " the event's spaces"),
    Mutant("attach-role2-no-rekey", "graph.py",
           "        del self._interned[old_key]\n        self._interned[new_key] = event\n",
           "",
           "attach_role2 leaves the intern table keyed on the old key"),
    Mutant("clash-key-without-attitude", "graph.py",
           "        return (fact.node_type, fact.att_type, fact.parts)\n",
           "        return (fact.node_type, fact.parts)\n",
           "two attitudes of one source toward one target clash when their polarities differ"),
    Mutant("lookup-no-nested-resolve", "graph.py",
           "                    resolved = self.resolve(fact)\n"
           "                    return None if resolved is None"
           " else self._interned.get(resolved)\n",
           "                    return None\n",
           "lookup finds no fact with a part not yet interned"),
    Mutant("prop-on-any-line", "graph.py",
           '                if kinds[ln.target] not in ("subjectivity", "privateState"):\n',
           "                if False:\n",
           "a p(...) line on a line that is no attitude is ignored"),
    # -- input checks ---------------------------------------------------------
    Mutant("gfbf-lexicon-effect-unchecked", "rules.py",
           "            kind = None if entry is None else entry.effect\n",
           "            kind = None\n",
           "a gfbf line keyed on a gfbf record of the other effect is accepted"),
    # -- the parser -----------------------------------------------------------
    Mutant("prop-non-ascii", "annotations.py",
           "not (prop.isascii() and prop.isalpha())",
           "not prop.isalpha()",
           "a prop of non-ASCII letters is accepted"),
    Mutant("kind-glued-to-bracket", "annotations.py",
           "    parts = raw.split(None, 2)\n"
           "    if len(parts) < 3 or parts[1] not in _LINE_KINDS:\n",
           "    parts = raw.split(None, 2)\n"
           "    for kind in _LINE_KINDS:\n"
           '        if len(parts) > 1 and parts[1].startswith(kind + "<"):\n'
           "            parts = [parts[0], kind, raw.split(None, 1)[1][len(kind):]]\n"
           "    if len(parts) < 3 or parts[1] not in _LINE_KINDS:\n",
           "a line kind glued to its '<' is accepted"),
    # -- the text views -------------------------------------------------------
    Mutant("display-memo-by-id-shared", "render.py",
           "    text = memo.get(node)\n",
           '    shared = _display.__dict__.setdefault("by_id", {})\n'
           "    if memo is not shared:\n"
           "        return (shared.get(node.node_id)\n"
           "                or shared.setdefault(node.node_id, _display(node, shared)))\n"
           "    text = memo.get(node)\n",
           "the display memo is keyed by node id and shared across views"),
    Mutant("display-child-not-indented", "render.py",
           '        text = head + _NEST + _display(child, memo).replace("\\n", _NEST)\n',
           "        text = head + _NEST + _display(child, memo)\n",
           "a child's display is nested without indenting its lines"),
    Mutant("label-cache-by-step-count", "render.py",
           "            label = labels.get(steps)\n"
           "            if label is None:\n"
           "                label = labels[steps] = format_space(steps)[1:]\n",
           "            label = labels.get(len(steps))\n"
           "            if label is None:\n"
           "                label = labels[len(steps)] = format_space(steps)[1:]\n",
           "the by-spaces view caches a space's label by its step count"),
    # -- the JSON writer ------------------------------------------------------
    Mutant("dumps-bool", "render.py",
           '_BOOL = ("false", "true")',
           '_BOOL = ("False", "True")',
           "booleans written as Python writes them"),
    Mutant("dumps-null", "render.py",
           '    strings = _Strings({None: "null"})\n',
           '    strings = _Strings({None: "None"})\n',
           "None written as Python writes it"),
    Mutant("dumps-escaping", "render.py",
           "        text = self[value] = _encode(value)\n",
           "        text = self[value] = f'\"{value}\"'\n",
           "strings written without escaping"),
    Mutant("dumps-separators", "render.py",
           '            sep = ",\\n    "\n',
           '            sep = ", \\n    "\n',
           "a space before the newline between sentences"),
    Mutant("dumps-block-space", "render.py",
           'if block.space else "null"}',
           'if block.space else "[]"}',
           "a block with no space written with an empty list"),
    Mutant("dumps-agreement-parts-swapped", "render.py",
           '    AGREEMENT: (("source", 0), ("target", 2), ("withWhom", 1)),\n',
           '    AGREEMENT: (("source", 0), ("target", 1), ("withWhom", 2)),\n',
           "an agreement's target written under withWhom, and its withWhom under target"),
    Mutant("dumps-empty-lists", "render.py",
           '_NO_INTS = "[]"',
           '_NO_INTS = "[\\n]"',
           "an empty list of ints written over two lines"),
]


def test_files() -> list[str]:
    return sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))


def stale(mutants) -> list[tuple[str, int]]:
    """The mutants whose old text does not occur exactly once, with the count."""
    counts = [(m.name, (SRC / "opine" / m.file).read_text(encoding="utf-8").count(m.old))
              for m in mutants]
    return [(name, n) for name, n in counts if n != 1]


def copy_src(mutant: Mutant | None, tmp: str) -> str:
    """A copy of src/ in tmp with the mutant applied; the copy's path."""
    src = os.path.join(tmp, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = Path(src, "opine", mutant.file)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")
    return src


def run_file(src: str, test_file: str, timeout: float) -> tuple[str, float]:
    """Run one test file against the copy: ("killed" or "survived", seconds)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONHASHSEED=HASH_SEED, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", _CHILD, src, "-x", "-q", "-p", "no:cacheprovider", test_file]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return "killed", round(time.perf_counter() - start, 2)  # a hang fails CI too
    seconds = round(time.perf_counter() - start, 2)
    if proc.returncode == _FOREIGN:
        raise SystemExit(f"{test_file}: opine was not imported from {src}")
    if proc.returncode not in (0, 1):  # 2: interrupted, 3-5: pytest could not run it
        raise SystemExit(f"{test_file}: pytest exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return ("killed" if proc.returncode else "survived"), seconds


def run_mutant(mutant: Mutant | None, files, timeouts) -> dict:
    with tempfile.TemporaryDirectory(prefix="opine-mutant-") as tmp:
        src = copy_src(mutant, tmp)
        results = {f: run_file(src, f, timeouts.get(f, 600.0)) for f in files}
    row = {"name": mutant.name, "file": mutant.file, "why": mutant.why} if mutant else {}
    if mutant and mutant.note:
        row["note"] = mutant.note
    row["killed_by"] = [f for f, (outcome, _) in results.items() if outcome == "killed"]
    row["seconds"] = {f: seconds for f, (_, seconds) in results.items()}
    return row


def changed_rows(old_table: dict, rows: list[dict]) -> list[str]:
    """A line per mutant whose killing files differ from the old table's."""
    before = {row["name"]: row["killed_by"] for row in old_table.get("mutants", [])}
    lines = []
    for row in rows:
        was = before.pop(row["name"], None)
        if was != row["killed_by"]:
            lines.append(f"  {row['name']}: {was} -> {row['killed_by']}")
    lines += [f"  {name}: {was} -> (gone)" for name, was in before.items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants; write nothing")
    parser.add_argument("--check", action="store_true",
                        help="check that every old text matches once; run no test")
    args = parser.parse_args(argv)

    unknown = sorted(set(args.names) - {m.name for m in MUTANTS})
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    stale_mutants = stale(chosen)
    for name, count in stale_mutants:
        print(f"stale: {name}: its old text matches {count} times, not once")
    if stale_mutants:
        return 1
    if args.check:
        print(f"{len(chosen)} mutants, each old text matches once")
        return 0

    files = test_files()
    baseline = run_mutant(None, files, {})
    if baseline["killed_by"]:
        print(f"failing without a mutant: {baseline['killed_by']}")
        return 1
    timeouts = {f: max(120.0, 10 * s) for f, s in baseline["seconds"].items()}
    with ThreadPoolExecutor(JOBS) as pool:
        rows = []
        for row in pool.map(lambda m: run_mutant(m, files, timeouts), chosen):
            rows.append(row)
            print(f"{row['name']}: killed by {len(row['killed_by'])} of {len(files)}"
                  f" {[Path(f).stem for f in row['killed_by']]}", flush=True)
    survivors = [row["name"] for row in rows if not row["killed_by"]]
    print(f"{len(rows)} mutants, {len(survivors)} survived: {survivors}")
    if args.names:
        return 0
    old_table = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    changes = changed_rows(old_table, rows)
    print("rows changed from the last table:" if changes else "no row changed")
    print("\n".join(changes))
    table = {
        "python": platform.python_version(),
        "hash_seed": HASH_SEED,
        "files": files,
        "baseline_seconds": baseline["seconds"],
        "mutants": rows,
    }
    TABLE.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
