"""Golden output digests for the corpus and the fixed-seed random documents.

Every corpus document is run under the default config and under
``extended_belief_spaces``; the digest covers the JSON export and the three
text renderers byte for byte.  The first ``RANDOM_DOCUMENTS`` documents of the
fixed-seed random suite, and the first ``DEEP_DOCUMENTS`` deep documents of
seed 2, get one digest per config each, covering the same outputs.
Regenerate ``golden/digests.json`` only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --update
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from opine import Config, parse_document, parse_lexicon, process_document
from opine.render import dumps, render_by_spaces, render_graph, render_trace

from test_properties import deep_document, random_document

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden" / "digests.json"
CONFIGS = {"default": Config(), "extended": Config(extended_belief_spaces=True)}
RANDOM_DOCUMENTS = 200  # the first documents of the fixed-seed random suite
DEEP_DOCUMENTS = 400  # the first deep documents of seed 2
# suite name -> (document generator, seed, documents)
SUITES = {"random": (random_document, 20240214, RANDOM_DOCUMENTS),
          "deep": (deep_document, 2, DEEP_DOCUMENTS)}


def update_with_outputs(h, results) -> None:
    h.update(dumps(results).encode("utf-8"))
    for result in results:
        for text in (render_graph(result.graph), render_by_spaces(result),
                     render_trace(result)):
            h.update(b"\x1e")
            h.update(text.encode("utf-8"))


def output_digest(path: Path, lex, cfg: Config) -> str:
    doc = parse_document(path.read_text(encoding="utf-8"), path.name)
    h = hashlib.sha256()
    update_with_outputs(h, process_document(doc, lex, cfg))
    return h.hexdigest()


def suite_digest(suite: str, lex, cfg: Config) -> str:
    """One digest over all the documents of a generated suite, in order."""
    generate, seed, count = SUITES[suite]
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        h.update(b"\x1d")
        update_with_outputs(h, process_document(parse_document(generate(rng)), lex, cfg))
    return h.hexdigest()


def load_lexicon():
    return parse_lexicon((CORPUS / "base.lex").read_text(encoding="utf-8"), "base.lex")


def current_digests() -> dict[str, dict[str, str]]:
    lex = load_lexicon()
    return {
        name: {path.name: output_digest(path, lex, cfg)
               for path in sorted(CORPUS.glob("*.ann"))}
        for name, cfg in CONFIGS.items()
    }


def current_suite_digests(suite: str) -> dict[str, str]:
    lex = load_lexicon()
    return {name: suite_digest(suite, lex, cfg) for name, cfg in CONFIGS.items()}


def test_corpus_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = current_digests()
    for config in CONFIGS:
        assert got[config].keys() == expected[config].keys(), config
        changed = [name for name in got[config] if got[config][name] != expected[config][name]]
        assert not changed, f"{config}: outputs changed for {changed}"


def test_random_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["random"]
    got = current_suite_digests("random")
    changed = [config for config in CONFIGS if got[config] != expected[config]]
    assert not changed, f"random documents: outputs changed under {changed}"


def test_deep_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["deep"]
    got = current_suite_digests("deep")
    changed = [config for config in CONFIGS if got[config] != expected[config]]
    assert not changed, f"deep documents: outputs changed under {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_golden.py --update")
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {**current_digests(), **{suite: current_suite_digests(suite) for suite in SUITES}}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
