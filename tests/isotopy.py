"""Isotopy moves and validity checks used by the invariance suites.

Each move inserts or permutes a few events of a word and returns the new
word, or None where the move does not apply at the given place. None of
this is part of the package: the evaluators are checked by showing that
these moves leave their outputs unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from skeinlab import jaeger
from skeinlab.diagrams import (CAP, CUP, DOWN, DiagramError, Event, LEFTMOVING,
                               OVER_LEFT, OVER_RIGHT, RIGHTMOVING, UP, Word, XING,
                               _step, analyze, oriented_sign)


def diagnose(word: Word) -> Optional[str]:
    """Validation as a question: returns the first problem, or None."""
    try:
        analyze(word)
    except DiagramError as err:
        return str(err)
    return None


def is_admissible(ana, labelling: dict) -> bool:
    """Does every crossing preserve labels or cut, in Jaeger's sense?"""
    for roles in jaeger.crossing_edges(ana):
        va, vb, vc, vd = (labelling[e] for e in roles)
        if not ((va == vc and vb == vd) or jaeger._is_cut(va, vb, vc, vd)):
            return False
    return True


def profiles(word: Word) -> list:
    """Profiles before each event and after the last one."""
    analyze(word)
    prof = list(word.profile)
    out = [tuple(prof)]
    for e in word.events:
        _step(prof, e)
        out.append(tuple(prof))
    return out


def _shift(e: Event) -> int:
    return 2 if e.kind == CUP else -2 if e.kind == CAP else 0


def commute_events(word: Word, i: int) -> Optional[Word]:
    """Swap events i and i+1 when they act on disjoint strand ranges."""
    if i + 1 >= len(word.events):
        return None
    e, f = word.events[i], word.events[i + 1]
    events = list(word.events)
    if f.pos + 1 < e.pos:
        events[i] = f
        events[i + 1] = replace(e, pos=e.pos + _shift(f))
    else:
        f_before = f.pos - _shift(e)
        if f_before <= e.pos + 1 or f_before < 1:
            return None
        events[i] = replace(f, pos=f_before)
        events[i + 1] = e
    out = replace(word, events=tuple(events))
    try:
        analyze(out)
    except DiagramError:
        return None
    return out


def insert_zigzag(word: Word, at: int, pos: int, side: str = "right") -> Optional[Word]:
    prof = profiles(word)[at]
    if not 1 <= pos <= len(prof):
        return None
    orient, colour = prof[pos - 1]
    if orient == UP:
        patch = ([Event(CUP, pos + 1, RIGHTMOVING, colour), Event(CAP, pos, RIGHTMOVING)]
                 if side == "right" else
                 [Event(CUP, pos, LEFTMOVING, colour), Event(CAP, pos + 1, LEFTMOVING)])
    else:
        patch = ([Event(CUP, pos + 1, LEFTMOVING, colour), Event(CAP, pos, LEFTMOVING)]
                 if side == "right" else
                 [Event(CUP, pos, RIGHTMOVING, colour), Event(CAP, pos + 1, RIGHTMOVING)])
    events = list(word.events)
    events[at:at] = patch
    out = replace(word, events=tuple(events))
    try:
        analyze(out)
    except DiagramError:
        return None
    return out


def insert_r2(word: Word, at: int, pos: int, tag: str = OVER_LEFT) -> Optional[Word]:
    prof = profiles(word)[at]
    if not 1 <= pos <= len(prof) - 1:
        return None
    other = OVER_RIGHT if tag == OVER_LEFT else OVER_LEFT
    events = list(word.events)
    events[at:at] = [Event(XING, pos, tag), Event(XING, pos, other)]
    return replace(word, events=tuple(events))


def insert_r3_pair(word: Word, at: int, pos: int, tag: str = OVER_LEFT):
    """The two sides of a Reidemeister III insertion, as a pair of words.

    The triple permutes the three strands, so the insertion is only legal
    where the outer strands agree in orientation and colour with what the
    rest of the word expects; otherwise None.
    """
    prof = profiles(word)[at]
    if not 1 <= pos <= len(prof) - 2:
        return None
    left = [Event(XING, pos, tag), Event(XING, pos + 1, tag), Event(XING, pos, tag)]
    right = [Event(XING, pos + 1, tag), Event(XING, pos, tag), Event(XING, pos + 1, tag)]
    events = list(word.events)
    wa = replace(word, events=tuple(events[:at] + left + events[at:]))
    wb = replace(word, events=tuple(events[:at] + right + events[at:]))
    try:
        analyze(wa)
        analyze(wb)
    except DiagramError:
        return None
    return wa, wb


def add_kink(word: Word, at: int, pos: int, rot: int, sign: int) -> Optional[Word]:
    """Insert a curl of the given rotation (+-1) and crossing sign (+-1)."""
    prof = profiles(word)[at]
    if not 1 <= pos <= len(prof):
        return None
    orient, colour = prof[pos - 1]
    if orient == UP:
        if rot == 1:
            mid = (UP, DOWN)
            patch = [Event(CUP, pos + 1, RIGHTMOVING, colour),
                     Event(XING, pos, None), Event(CAP, pos, LEFTMOVING)]
        else:
            mid = (DOWN, UP)
            patch = [Event(CUP, pos, LEFTMOVING, colour),
                     Event(XING, pos + 1, None), Event(CAP, pos + 1, RIGHTMOVING)]
    else:
        if rot == 1:
            mid = (UP, DOWN)
            patch = [Event(CUP, pos, RIGHTMOVING, colour),
                     Event(XING, pos + 1, None), Event(CAP, pos + 1, LEFTMOVING)]
        else:
            mid = (DOWN, UP)
            patch = [Event(CUP, pos + 1, LEFTMOVING, colour),
                     Event(XING, pos, None), Event(CAP, pos, RIGHTMOVING)]
    tag = OVER_LEFT if oriented_sign(mid[0], mid[1], OVER_LEFT) == sign else OVER_RIGHT
    patch[1] = replace(patch[1], tag=tag)
    events = list(word.events)
    events[at:at] = patch
    out = replace(word, events=tuple(events))
    try:
        analyze(out)
    except DiagramError:
        return None
    return out
