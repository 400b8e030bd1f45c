"""Golden output digests for the corpus.

Every corpus document is run under the default config and under
``extended_belief_spaces``; the digest covers the JSON export and the three
text renderers byte for byte.  Regenerate ``golden/digests.json`` only when an
output change is intended:

    PYTHONPATH=src python tests/test_golden.py --update
"""

import hashlib
import json
import sys
from pathlib import Path

from opine import Config, parse_document, parse_lexicon, process_document
from opine.render import dumps, render_by_spaces, render_graph, render_trace

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden" / "digests.json"
CONFIGS = {"default": Config(), "extended": Config(extended_belief_spaces=True)}


def output_digest(path: Path, lex, cfg: Config) -> str:
    doc = parse_document(path.read_text(encoding="utf-8"), path.name)
    results = process_document(doc, lex, cfg)
    h = hashlib.sha256(dumps(results).encode("utf-8"))
    for result in results:
        for text in (render_graph(result.graph), render_by_spaces(result),
                     render_trace(result)):
            h.update(b"\x1e")
            h.update(text.encode("utf-8"))
    return h.hexdigest()


def current_digests() -> dict[str, dict[str, str]]:
    lex = parse_lexicon((CORPUS / "base.lex").read_text(encoding="utf-8"), "base.lex")
    return {
        name: {path.name: output_digest(path, lex, cfg)
               for path in sorted(CORPUS.glob("*.ann"))}
        for name, cfg in CONFIGS.items()
    }


def test_corpus_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = current_digests()
    for config in CONFIGS:
        assert got[config].keys() == expected[config].keys(), config
        changed = [name for name in got[config] if got[config][name] != expected[config][name]]
        assert not changed, f"{config}: outputs changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_golden.py --update")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(current_digests(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
