"""Write reference.json: the inventory digest of every benchmark document.

Run from the root of a checkout, at a commit whose outputs pass the
acceptance suite:

    python3 bench/capture.py

Entries are keyed by configuration, then by the digest of the document text.
The default configuration covers the corpus, the `wide` pool and the scaling
sweep; the extended one (the `closure` workload) the corpus and the sweep.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import pipeline
    import workloads

    lex = pipeline.load_lexicon()
    corpus = workloads.corpus_documents()
    sweep = [(f"sweep-{n}", text) for n, text in workloads.sweep_documents()]
    documents = {
        "default": corpus + workloads.wide_pool() + sweep,
        "extended": corpus + sweep,
    }
    reference = {}
    for config, docs in documents.items():
        cfg = pipeline.CONFIGS[config]
        reference[config] = {
            workloads.text_digest(text): pipeline.inventory_digest(
                pipeline.run_document(text, name, lex, cfg)[0])
            for name, text in docs
        }
    pipeline.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
