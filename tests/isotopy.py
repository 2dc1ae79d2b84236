"""Isotopy moves, validity checks and reference code for the test suites.

Each move inserts or permutes a few events of a word and returns the new
word, or None where the move does not apply at the given place. None of
this is part of the package: the evaluators are checked by showing that
these moves leave their outputs unchanged.

The reference code below (rotation numbers and windings per component,
writhe, mirror and reversal of words, the bar involution and the JSON
reader of scalars) states what the tests compare the package against.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Optional

from skeinlab import jaeger
from skeinlab.diagrams import (BLACKBOARD, CAP, CUP, DOWN, DiagramError, Event,
                               LEFTMOVING, OVER_LEFT, OVER_RIGHT, RIGHTMOVING, UP,
                               Word, XING, _step, analyze, oriented_sign)
from skeinlab.scalars import ArityError, Scalar


# -- reference code -------------------------------------------------------


def _turns_and_windings(word: Word) -> tuple:
    """Per component, in basepoint order: the sum of its extremum turns in
    half units (cup> and cap< +1, cup< and cap> -1), and its signed count
    of strands in the bottom profile (+1 up, -1 down)."""
    ana = analyze(word)
    turn = [0] * len(ana.components)
    wind = [0] * len(ana.components)
    for _, kind, tag, l, _ in ana.extrema:
        turn[ana.slot_component[l]] += 1 if (kind == CUP) == (tag == RIGHTMOVING) else -1
    for b in ana.bottom:
        wind[ana.slot_component[b]] += 1 if ana.slot_orient[b] == UP else -1
    return turn, wind


def rotations(word: Word) -> list:
    """Each component's turning number; a counterclockwise circle has +1."""
    turn, _ = _turns_and_windings(word)
    assert all(t % 2 == 0 for t in turn), turn
    return [t // 2 for t in turn]


def windings(word: Word) -> list:
    """Each component's signed number of passes through the gluing profile."""
    return _turns_and_windings(word)[1]


def rotation_numbers(word: Word) -> list:
    """Each component's rotation number in the word's framing: the turning
    number, plus the winding under the blackboard framing."""
    wind = windings(word)
    if word.framing != BLACKBOARD:
        wind = [0] * len(wind)
    return [r + w for r, w in zip(rotations(word), wind)]


def writhe(word: Word) -> int:
    return sum(c.sign for c in analyze(word).crossings)


def mirror(word: Word) -> Word:
    flip = {OVER_LEFT: OVER_RIGHT, OVER_RIGHT: OVER_LEFT}
    events = tuple(replace(e, tag=flip[e.tag]) if e.kind == XING else e
                   for e in word.events)
    return replace(word, events=events)


def reverse(word: Word) -> Word:
    """Reverse every strand orientation."""
    swap = {RIGHTMOVING: LEFTMOVING, LEFTMOVING: RIGHTMOVING}
    events = tuple(replace(e, tag=swap[e.tag]) if e.kind in (CUP, CAP) else e
                   for e in word.events)
    profile = tuple((UP if o == DOWN else DOWN, c) for o, c in word.profile)
    return replace(word, events=events, profile=profile)


def bar(s: Scalar) -> Scalar:
    """The mirror involution q -> q^-1, a_i -> a_i^-1."""
    out = {tuple(-e for e in expo): c for expo, c in s.terms.items()}
    sign = -1 if s.den_pow % 2 else 1
    if sign < 0:
        out = {e: -c for e, c in out.items()}
    return Scalar(s.arity, out, s.den_pow, _canonical=True)


def from_json(data) -> Scalar:
    """The scalar written by `scalars.to_json`, from a dict or its JSON text."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    arity = int(data["arity"])
    terms = {}
    for t in data["terms"]:
        key = (int(t["q"]),) + tuple(int(x) for x in t["a"])
        if len(key) != arity + 1:
            raise ArityError("exponent vector length does not match arity")
        terms[key] = int(t["c"])
    return Scalar(arity, terms, int(data["den_pow"]))


# -- moves and validity checks -------------------------------------------


def diagnose(word: Word) -> Optional[str]:
    """Validation as a question: returns the first problem, or None."""
    try:
        analyze(word)
    except DiagramError as err:
        return str(err)
    return None


def is_admissible(roles: list, labelling: dict) -> bool:
    """Does every crossing, with edge roles `roles`
    (`jaeger.crossing_edges`), preserve labels or cut, in Jaeger's sense?"""
    for r in roles:
        va, vb, vc, vd = (labelling[e] for e in r)
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
