"""Batch command-line front end: complete, check, query, export.

Exit codes: 0 success, 1 mathematical negative (not a GS basis, words not
equal), 2 usage/parse error, 3 completion cap reached where completeness
is required, the reduction step cap reached, or a check that found no
failure but left compositions above its degree cap unchecked.
"""

from __future__ import annotations

import argparse
import os
import sys

from .complete import CERTIFYING_STATUSES, CompletionConfig, walk_compositions
from .lie import pbw_basis
from .present import (
    CappedCompletionError,
    NonBinomialBasisError,
    Presentation,
    PresentationError,
    catalog,
    complete_presentation,
    growth_series,
    normal_form_word,
    parse_presentation,
    to_algebra_relations,
    word_problem,
)
from .rewrite import RuleSet, StepLimitExceeded, _max_steps, irr_words

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3


class _Usage(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _load(path: str) -> Presentation:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _Usage(str(exc))
    try:
        return parse_presentation(text)
    except PresentationError as exc:
        raise _Usage(f"{path}: {exc}")


def _word(p: Presentation, text: str):
    try:
        return p.alphabet.word(text)
    except KeyError as exc:
        raise _Usage(exc.args[0])


def _complete(p: Presentation, max_deg, max_rules=None):
    cfg = CompletionConfig(max_degree=max_deg, max_rules=max_rules)
    return complete_presentation(p, cfg)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="shirshov")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name, **kw):
        s = sub.add_parser(name, **kw)
        s.add_argument("file")
        return s

    c = with_file("complete", help="run completion and print the basis")
    c.add_argument("--max-deg", type=int, default=None)
    c.add_argument("--max-rules", type=int, default=None)
    c.add_argument("--json", action="store_true")

    k = with_file("check", help="GS-basis verdict for the relations as given")
    k.add_argument("--max-deg", type=int, default=None)

    n = with_file("nf", help="normal forms of words, one per line, from one completion")
    n.add_argument("words", nargs="+")

    e = with_file("eq", help="decide whether two words are equal")
    e.add_argument("w1")
    e.add_argument("w2")

    i = with_file("irr", help="irreducible words up to a degree")
    i.add_argument("--deg", type=int, required=True)

    b = with_file("pbw", help="PBW monomials up to a degree (lie kind only)")
    b.add_argument("--deg", type=int, required=True)

    g = with_file("growth", help="normal-form counts per length")
    g.add_argument("--len", type=int, required=True, dest="length")

    cat = sub.add_parser("catalog", help="emit a catalog presentation file")
    cat.add_argument("name")
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        _max_steps()  # a bad GS_MAX_STEPS is a usage error for every subcommand
        return _dispatch(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CappedCompletionError, StepLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except (NonBinomialBasisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "catalog":
        try:
            print(catalog(args.name).source(), end="")
        except KeyError as exc:
            raise _Usage(str(exc))
        return EXIT_OK

    p = _load(args.file)

    if args.command == "complete":
        result = _complete(p, args.max_deg, args.max_rules)
        if args.json:
            print(result.to_json())
        else:
            print(f"status: {result.status}")
            for f in result.ordered_basis():
                print(f"  {f}")
        return EXIT_OK if result.status in CERTIFYING_STATUSES else EXIT_CAPPED

    if args.command == "check":
        rules = RuleSet(to_algebra_relations(p))
        checked, skipped, failures = 0, 0, []
        for rec in walk_compositions(rules, args.max_deg):
            if rec.residue is None:
                skipped += 1
                continue
            checked += 1
            if rec.residue.ints:
                failures.append(rec)
        if not failures:
            if skipped:
                print(
                    f"GS basis: unknown ({len(rules)} rules, {checked} compositions checked; "
                    f"{skipped} compositions above degree {args.max_deg} were not checked)"
                )
                return EXIT_CAPPED
            print(f"GS basis: yes ({len(rules)} rules, {checked} compositions checked)")
            return EXIT_OK
        print(f"GS basis: no ({len(failures)} failing compositions)")
        for rec in failures:
            print(f"  w = {rec.composition.w}: residue {rec.residue}")
        return EXIT_NEGATIVE

    if args.command == "nf":
        words = [_word(p, text) for text in args.words]
        result = _complete(p, None)
        print("\n".join(str(normal_form_word(w, result)) for w in words))
        return EXIT_OK

    if args.command == "eq":
        u = _word(p, args.w1)
        v = _word(p, args.w2)
        if word_problem(u, v, _complete(p, None)):
            print("equal")
            return EXIT_OK
        print("not equal")
        return EXIT_NEGATIVE

    if args.command == "irr":
        for w in irr_words(_complete(p, None).certified_basis(), args.deg, p.alphabet):
            print(w)
        return EXIT_OK

    if args.command == "pbw":
        if p.kind != "lie":
            raise _Usage("pbw applies to lie-kind presentations only")
        result = _complete(p, None)
        for m in pbw_basis(result, args.deg, p.alphabet):
            print(m)
        return EXIT_OK

    if args.command == "growth":
        result = _complete(p, None)
        gs = growth_series(result, args.length)
        print(" ".join(str(c) for c in gs.counts))
        return EXIT_OK

    raise _Usage(f"unknown command {args.command!r}")


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head``); Python flushes stdout again at
        # exit, so point it at devnull to keep that flush from failing too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
