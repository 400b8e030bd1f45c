"""Seeded inputs for the benchmark's workloads.

Everything here depends only on the files in ``bench/corpus`` and on the
seeds passed in, never on ``tests/``, so that editing a test cannot shift the
benchmark.  ``random.Random`` seeded with an int or a str is independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
LEXICON_PATH = CORPUS_DIR / "base.lex"

WIDE_EVENTS = 12      # gfbf events per `wide` document
WIDE_POOL_SIZE = 128  # distinct `wide` documents with a captured reference
SWEEP_SIZES = (4, 8, 16, 32)

EFFECTS = ("goodFor", "badFor")
POLARITIES = ("positive", "negative")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def corpus_documents() -> list[tuple[str, str]]:
    """The golden corpus as (file name, text), in file-name order."""
    return [(p.name, p.read_text(encoding="utf-8")) for p in sorted(CORPUS_DIR.glob("*.ann"))]


def wide_document(rng: random.Random, n: int) -> str:
    """One sentence with n distinct gfbf events over 2n+2 animate names.

    No (agent, object) pair repeats with either effect, so no two events are
    structurally equal and the input holds no contradiction.  Each event is
    the target of one random source's positive or negative sentiment, and the
    writer positively believes each of those sentiments.
    """
    names = [f"p{i}" for i in range(2 * n + 2)]
    pairs: set[tuple[str, str]] = set()
    lines = ['"A synthetic sentence."']
    while len(pairs) < n:
        agent, obj = rng.sample(names, 2)
        if (agent, obj) in pairs:
            continue
        pairs.add((agent, obj))
        k = len(pairs)
        source = rng.choice(names)
        lines.append(f"E{k} gfbf <{agent}, {rng.choice(EFFECTS)} (e{k}), {obj}>")
        lines.append(f"S{k} subjectivity <{source}, {rng.choice(POLARITIES)} sentiment (s{k}), E{k}>")
        lines.append(f'B{k} privateState <writer, positive believesTrue (""), S{k}>')
    return "\n".join(lines) + "\n"


def wide_pool() -> list[tuple[str, str]]:
    """The fixed pool of `wide` documents; a run's seed picks their order."""
    return [
        (f"wide-{i}", wide_document(random.Random(f"wide-pool-{i}"), WIDE_EVENTS))
        for i in range(WIDE_POOL_SIZE)
    ]


def sweep_documents() -> list[tuple[int, str]]:
    """The scaling sweep: one `wide` document per size in SWEEP_SIZES."""
    return [(n, wide_document(random.Random(f"sweep-{n}"), n)) for n in SWEEP_SIZES]


def shuffled_rounds(docs: list, seed: int):
    """Endless rounds over docs, each round in a fresh seeded order."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(docs, len(docs))
