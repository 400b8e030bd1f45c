"""opine benchmark: one closed-loop client over the corpus, wide and closure workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times the untraced pipeline and prints the end-to-end
metrics; with ``--trace 1`` it runs a fixed, seeded document list, each
document untraced and then with spans around every layer, plus the scaling
sweep, and prints the per-layer metrics.  Every document's output is checked against
``reference.json``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("corpus", "wide", "closure")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "opine" / "__init__.py").is_file():
        print(f"error: no opine sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pipeline

    if args.trace:
        result = pipeline.traced_run(args.workload, args.seed, args.seconds)
    else:
        result = pipeline.measure(args.workload, args.seed, args.seconds, src)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
