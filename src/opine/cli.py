"""Command-line driver: parse, infer, and report."""

from __future__ import annotations

import argparse
import sys

from . import render
from .annotations import Lexicon, parse_document, parse_lexicon
from .errors import InputError, OpineError
from .rules import DEFAULT_RULE_ORDER, RULES, Config, process_document


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opine",
        description="Derive the default opinion implicatures of annotated sentences.",
    )
    parser.add_argument("--input", required=True, help="annotation document")
    parser.add_argument("--lexicon", help="lexicon file (conn/gfbf/infl records)")
    parser.add_argument("--trace", action="store_true", help="print the rule-firing log")
    parser.add_argument("--by-spaces", action="store_true",
                        help="print the space-membership summary")
    parser.add_argument("--json", metavar="OUT", help="write the JSON export to OUT")
    parser.add_argument("--what-if", metavar="LINE=POLARITY",
                        help="flip one input polarity, run both, print the diff")
    parser.add_argument("--extended-belief-spaces", action="store_true",
                        help="also place non-propositions into belief-variant spaces")
    parser.add_argument("--max-iterations", type=int, default=50)
    parser.add_argument("--rule-order", metavar="CSV",
                        help="comma-separated rule order override; a diagnostic, since"
                             " the default order is normative and other orders may"
                             " derive other (competing) defaults")
    return parser


def _config_from_args(args) -> Config:
    order = DEFAULT_RULE_ORDER
    if args.rule_order is not None:
        order = tuple(name.strip() for name in args.rule_order.split(",") if name.strip())
        if not order:
            raise ValueError("--rule-order names no rules")
        unknown = [name for name in order if name not in RULES]
        if unknown:
            raise ValueError(f"unknown rule names: {', '.join(unknown)}")
    if args.max_iterations < 1:
        raise ValueError(f"--max-iterations must be at least 1, got {args.max_iterations}")
    return Config(
        rule_order=order,
        extended_belief_spaces=args.extended_belief_spaces,
        max_iterations=args.max_iterations,
    )


def _run_whatif(doc, lex, cfg, spec: str, out) -> None:
    line_id, eq, polarity = (part.strip() for part in spec.partition("="))
    if not (eq and line_id and polarity):
        raise ValueError("--what-if expects LINE=positive|negative")
    if all(ln.line_id != line_id for sent in doc.sentences for ln in sent.lines):
        raise ValueError(f"no line {line_id} in {doc.source_name}")
    diffs = render.whatif_diff(doc, lex, line_id, polarity, cfg)
    for i, (only_base, only_flip) in enumerate(diffs):
        if len(diffs) > 1:
            print(f"sentence {i + 1}:", file=out)
        print(f"what-if {line_id}={polarity}", file=out)
        print("only in original:", file=out)
        for key in only_base:
            print(f"  {key}", file=out)
        print("only in what-if:", file=out)
        for key in only_flip:
            print(f"  {key}", file=out)


def _check_whatif_flags(args) -> None:
    """A what-if run prints only its diff, so an output flag would be ignored."""
    given = [flag for flag, value in (("--json", args.json is not None),
                                      ("--trace", args.trace),
                                      ("--by-spaces", args.by_spaces)) if value]
    if given:
        raise ValueError(f"--what-if prints only the diff; drop {', '.join(given)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.what_if is not None:
            _check_whatif_flags(args)
        cfg = _config_from_args(args)
        # utf-8-sig: a byte-order mark, as some editors save one, is not text
        with open(args.input, encoding="utf-8-sig") as f:
            doc = parse_document(f.read(), args.input)
        if args.lexicon:
            with open(args.lexicon, encoding="utf-8-sig") as f:
                lex = parse_lexicon(f.read(), args.lexicon)
        else:
            lex = Lexicon()

        if args.what_if is not None:
            _run_whatif(doc, lex, cfg, args.what_if, out)
            return 0

        results = process_document(doc, lex, cfg)
        for sent, result in zip(doc.sentences, results):
            print(f'"{sent.text}"', file=out)
            print(render.render_graph(result.graph), end="", file=out)
            if args.by_spaces:
                print("-- by spaces --", file=out)
                print(render.render_by_spaces(result), end="", file=out)
            if args.trace:
                print("-- trace --", file=out)
                print(render.render_trace(result), end="", file=out)
            print(file=out)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(render.dumps(results))
        return 0
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # nested lines are walked recursively, from the parser on
        print("error: input nests too deeply", file=sys.stderr)
        return 1
    except OpineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
