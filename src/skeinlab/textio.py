"""Parsing and rendering of the on-disk diagram grammar.

The stable input format is line oriented:

    document  = { line } ;
    line      = blank | comment | header | event | braid ;
    comment   = "#" text ;
    header    = "surface" ("plane" | "annulus")
              | "framing" ("blackboard" | "radial")
              | "profile" { orient colour } ;
    orient    = "^" | "v" ;
    colour    = "g" | "r" | "v" ;
    event     = "cup" int (">" | "<") [colour]
              | "cap" int (">" | "<")
              | "x"   int ("o" | "u") ;
    braid     = "braid" int ":" { signed-int } [";"] ["close"] ;

Headers must precede event lines. "x i o" means the strand entering at
the lower left passes over. Braid generators are 1-based; a positive
generator is the left-over crossing of two upward strands.
"""

from __future__ import annotations

import json
from typing import Optional

from . import diagrams
from .diagrams import (ANNULUS, BLACKBOARD, CAP, CUP, DOWN, Event, GREEN,
                       LEFTMOVING, OVER_LEFT, OVER_RIGHT, PLANE, RADIAL,
                       RIGHTMOVING, UP, Word, XING)
from . import scalars

COLOUR_LETTERS = {"g": 1, "r": 2, "v": 3}
LETTER_OF_COLOUR = {v: k for k, v in COLOUR_LETTERS.items()}


class DiagnosticError(ValueError):
    """Structured parse failure with position and expectation info."""

    def __init__(self, message: str, line: int = 0, expected: tuple = ()):
        self.line = line
        self.expected = expected
        at = f" at line {line}" if line else ""
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(message + at + hint)


class LexicalError(DiagnosticError):
    pass


class GrammarError(DiagnosticError):
    pass


class SemanticError(DiagnosticError):
    pass


def desugar_braid(n: int, word, close: bool) -> Word:
    """Standard braid closure: n right-moving cups, the crossings, n caps.

    Without closing, the braid is returned as an annulus word whose gluing
    profile is n upward strands.
    """
    if n < 1:
        raise SemanticError(f"braid needs at least one strand, got {n}")
    events = []
    for g in word:
        if g == 0 or abs(g) >= n:
            raise SemanticError(f"braid generator {g} out of range for {n} strands")
        tag = OVER_LEFT if g > 0 else OVER_RIGHT
        events.append(Event(XING, abs(g), tag))
    open_braid = Word(surface=ANNULUS, framing=BLACKBOARD,
                      profile=tuple((UP, GREEN) for _ in range(n)),
                      events=tuple(events))
    if not close:
        return open_braid
    return diagrams.planar_closure(open_braid)


def _tokens(line: str):
    return line.split("#", 1)[0].split()


def parse_morse(text: str, framing: Optional[str] = None) -> Word:
    """Parse the grammar above into a validated word.

    This is the one place the framing rule is applied, for every input: a
    given `framing` replaces the header's, an annulus word with neither is
    refused (its coproduct depends on the framing, so there is no silent
    default), and a plane word without one is blackboard.
    """
    surface = PLANE
    declared: Optional[str] = None
    profile = []
    events = []
    event_lines = []
    seen_event = False
    seen_braid = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        head = toks[0].lower()
        if head == "surface":
            if seen_event or seen_braid:
                raise SemanticError("surface header after body", lineno)
            if len(toks) != 2 or toks[1] not in (PLANE, ANNULUS):
                raise GrammarError("bad surface header", lineno,
                                   expected=(PLANE, ANNULUS))
            surface = toks[1]
        elif head == "framing":
            if len(toks) != 2 or toks[1] not in (BLACKBOARD, RADIAL):
                raise GrammarError("bad framing header", lineno,
                                   expected=(BLACKBOARD, RADIAL))
            declared = toks[1]
        elif head == "profile":
            if seen_event or seen_braid:
                raise SemanticError("profile header after body", lineno)
            profile = []
            for t in toks[1:]:
                if len(t) != 2 or t[0] not in (UP, DOWN) or t[1] not in COLOUR_LETTERS:
                    raise LexicalError(f"bad profile token {t!r}", lineno,
                                       expected=("^g", "^r", "^v", "vg", "vr", "vv"))
                profile.append((t[0], COLOUR_LETTERS[t[1]]))
        elif head in (CUP, CAP, XING):
            seen_event = True
            if seen_braid:
                raise SemanticError("event line after a braid clause", lineno)
            if len(toks) < 3:
                raise GrammarError(f"{head} needs a position and a tag", lineno)
            try:
                pos = int(toks[1])
            except ValueError:
                raise LexicalError(f"bad position {toks[1]!r}", lineno) from None
            tag = toks[2]
            want = (RIGHTMOVING, LEFTMOVING) if head in (CUP, CAP) else (OVER_LEFT, OVER_RIGHT)
            if tag not in want:
                raise GrammarError(f"bad {head} tag {tag!r}", lineno, expected=want)
            colour = GREEN
            if head == CUP and len(toks) == 4:
                if toks[3] not in COLOUR_LETTERS:
                    raise LexicalError(f"bad colour token {toks[3]!r}", lineno,
                                       expected=tuple(COLOUR_LETTERS))
                colour = COLOUR_LETTERS[toks[3]]
            elif len(toks) > 3:
                raise GrammarError(f"trailing tokens on {head} line", lineno)
            events.append(Event(head, pos, tag, colour))
            event_lines.append(lineno)
        elif head == "braid":
            if seen_event or seen_braid:
                raise SemanticError("braid clause must be the whole body", lineno)
            seen_braid = True
            rest = " ".join(toks[1:])
            if ":" not in rest:
                raise GrammarError("braid clause needs a colon", lineno, expected=(":",))
            count_txt, after = rest.split(":", 1)
            try:
                n = int(count_txt)
            except ValueError:
                raise LexicalError(f"bad strand count {count_txt.strip()!r}", lineno) from None
            after = after.replace(";", " ")
            parts = after.split()
            close = False
            if parts and parts[-1] == "close":
                close = True
                parts = parts[:-1]
            try:
                gens = [int(p) for p in parts]
            except ValueError:
                raise LexicalError("braid letters must be signed integers", lineno) from None
            try:
                braid = desugar_braid(n, gens, close)
            except SemanticError as err:
                raise SemanticError(str(err), lineno) from None
            if profile:
                raise SemanticError("braid clause and explicit profile conflict", lineno)
            if braid.surface != surface:
                raise SemanticError("closed braid is a plane word" if close else
                                    "open braid is an annulus word; "
                                    "say 'surface annulus' or close it", lineno)
            profile, events = braid.profile, braid.events
        else:
            raise GrammarError(f"unknown directive {head!r}", lineno,
                               expected=("surface", "framing", "profile",
                                         CUP, CAP, XING, "braid"))

    framing = framing or declared
    if framing is None:
        if surface == ANNULUS:
            raise SemanticError(
                "annulus input carries no framing header; add 'framing radial' "
                "or 'framing blackboard' (single-file commands also take --framing)")
        framing = BLACKBOARD
    word = Word(surface, framing, tuple(profile), tuple(events))
    try:
        diagrams.analyze(word)
    except diagrams.DiagramError as err:
        line = 0
        if err.index is not None and err.index < len(event_lines):
            line = event_lines[err.index]
        raise SemanticError(err.message, line) from None
    return word


def render_morse(word: Word) -> str:
    lines = [f"surface {word.surface}", f"framing {word.framing}"]
    if word.profile:
        toks = []
        for o, c in word.profile:
            if c not in LETTER_OF_COLOUR:
                raise SemanticError(f"colour {c} has no surface syntax")
            toks.append(f"{o}{LETTER_OF_COLOUR[c]}")
        lines.append("profile " + " ".join(toks))
    for e in word.events:
        if e.kind == CUP:
            if e.colour not in LETTER_OF_COLOUR:
                raise SemanticError(f"colour {e.colour} has no surface syntax")
            suffix = "" if e.colour == GREEN else " " + LETTER_OF_COLOUR[e.colour]
            lines.append(f"cup {e.pos} {e.tag}{suffix}")
        else:
            lines.append(f"{e.kind} {e.pos} {e.tag}")
    return "\n".join(lines) + "\n"


EMPTY_TOKEN = "1_∅"


def render(value, fmt: str = "pretty") -> str:
    """Deterministic rendering of a scalar."""
    if fmt not in ("pretty", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(value, scalars.Scalar):
        if fmt == "json":
            return json.dumps(scalars.to_json(value), indent=2, sort_keys=True)
        return scalars.pretty(value)
    raise TypeError(f"cannot render {type(value).__name__}")
