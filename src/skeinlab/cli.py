"""Command line front end.

Commands: eval, coproduct, jaeger, iterate, verify. Inputs are diagram
files in the line grammar of skeinlab.textio ("-" reads from stdin).
Exit codes: 0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import coproduct, corpus, diagrams, engine, jaeger, scalars, textio
from .diagrams import ANNULUS, Word


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError, so `main` reports them in one line."""

    def error(self, message):
        raise CliError(message)


def _emit(value, fmt: str) -> None:
    if isinstance(value, coproduct.CoproductElement):
        if fmt == "json":
            print(json.dumps(value.to_json(), indent=2, sort_keys=True))
        else:
            print(value.pretty())
    else:
        print(textio.render(value, fmt))


def _parse_t_values(raw: str) -> list:
    try:
        return [int(p) for p in raw.split(",") if p != ""]
    except ValueError:
        raise CliError(f"--t expects integers separated by commas, got {raw!r}") from None


def cmd_eval(args, word: Word) -> int:
    # the loaded word is valid, so every cap joins one colour and the
    # cups and the profile carry every component's colour
    colours = sorted({e.colour for e in word.events if e.kind == diagrams.CUP}
                     | {c for _, c in word.profile})
    if colours and colours != [colours[0]]:
        value = engine.eval_multi_colour(word, max(colours))
    else:
        value = engine.eval_one_colour(word)
    if args.t is not None:
        value = scalars.specialize(value, _parse_t_values(args.t))
    _emit(value, args.format)
    return 0


def cmd_coproduct(args, word: Word) -> int:
    _emit(coproduct.coproduct_diagram(word), args.format)
    return 0


def cmd_jaeger(args, word: Word) -> int:
    sink = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    _emit(jaeger.state_sum(word, 2, trace=sink), args.format)
    return 0


def cmd_iterate(args, word: Word) -> int:
    element = coproduct.coproduct_iterated(word, args.slots)
    if word.surface == ANNULUS:
        _emit(element, args.format)
    else:
        _emit(element.evaluate(), args.format)
    return 0


def cmd_verify(args, _word) -> int:
    if args.corpus == "builtin":
        entries = corpus.load_builtin()
    else:
        entries = corpus.load_path(args.corpus)
    idents = coproduct.IDENTITIES if args.identity == "all" else (args.identity,)
    memo = {}  # one for every suite: a word resolved once serves them all
    reports = [coproduct.verify(i, entries, memo) for i in idents]
    failures = 0
    for report in reports:
        print(report.text())
        failures += report.failures
    print(f"{'ok' if not failures else 'FAILED'}: "
          f"{sum(len(r.lines) for r in reports)} checks, {failures} failures")
    return 0 if failures == 0 else 2


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and argparse looks up sys.stdout and sys.stderr only when
    it prints."""
    parser = _Parser(
        prog="skeinlab",
        description="Exact framed skein evaluation, composition state sums "
                    "and the two-colour splitting coproduct.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="diagram file, or - for stdin")
        p.add_argument("--format", choices=("pretty", "json"), default="pretty")
        p.add_argument("--framing", choices=(diagrams.RADIAL, diagrams.BLACKBOARD),
                       default=None)

    p = sub.add_parser("eval", help="evaluate a closed plane diagram")
    common(p)
    p.add_argument("--t", default=None, metavar="N[,N...]",
                   help="specialize the parameters at integers")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coproduct", help="two-colour splitting of a diagram")
    common(p)
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("jaeger", help="two-label composition state sum")
    common(p)
    p.add_argument("--trace", action="store_true",
                   help="one audit line per labelling on stderr")
    p.set_defaults(func=cmd_jaeger)

    p = sub.add_parser("iterate", help="iterated coproduct")
    common(p)
    p.add_argument("--slots", type=int, default=3)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("verify", help="run identity suites over a corpus")
    p.add_argument("identity", choices=coproduct.IDENTITIES + ("all",))
    p.add_argument("--corpus", default="builtin",
                   help="builtin, a .mw file, or a directory of them")
    p.add_argument("--deterministic", action="store_true",
                   help="accepted for compatibility; the suites always run "
                        "one after another")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    word = None
    try:
        args = build_parser().parse_args(argv)
        if args.command != "verify":
            word = textio.parse_morse(corpus.read_text(args.input), args.framing)
        return args.func(args, word)
    except RecursionError:
        size = "" if word is None else f" on a {len(word.events)}-event diagram"
        print(f"skeinlab: error: {args.command} exceeded the interpreter's "
              f"recursion limit{size}", file=sys.stderr)
        return 1
    except (CliError, corpus.CorpusError, textio.DiagnosticError,
            diagrams.DiagramError, engine.EvalError, engine.BudgetError,
            jaeger.StateSumError, coproduct.CoproductError, scalars.ArityError,
            scalars.SpecializeError) as err:
        print(f"skeinlab: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
