"""Isotopy moves, validity checks and reference code for the test suites.

Each move inserts or permutes a few events of a word and returns the new
word, or None where the move does not apply at the given place. None of
this is part of the package: the evaluators are checked by showing that
these moves leave their outputs unchanged.

The reference code below (rotation numbers and windings per component,
writhe, mirror and reversal of words, the bar involution and the JSON
reader of scalars, the scalar counit, the builtin words by name, the
randomized no-memo resolver `naive_eval`, and a ring on exponent tuples
that packs nothing) states what the tests compare the package against.
"""

from __future__ import annotations

import json
import random
from math import comb
from typing import Optional

from skeinlab import corpus, engine, jaeger, scalars, textio
from skeinlab.diagrams import (BLACKBOARD, CAP, CUP, DOWN, DiagramError, Event,
                               LEFTMOVING, OVER_LEFT, OVER_RIGHT, RIGHTMOVING, UP,
                               Word, XING, _step, analyze, flip_crossing,
                               oriented_sign, smooth_crossing)
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
    events = tuple(e._replace(tag=flip[e.tag]) if e.kind == XING else e
                   for e in word.events)
    return word._replace(events=events)


def reverse(word: Word) -> Word:
    """Reverse every strand orientation."""
    swap = {RIGHTMOVING: LEFTMOVING, LEFTMOVING: RIGHTMOVING}
    events = tuple(e._replace(tag=swap[e.tag]) if e.kind in (CUP, CAP) else e
                   for e in word.events)
    profile = tuple((UP if o == DOWN else DOWN, c) for o, c in word.profile)
    return word._replace(events=events, profile=profile)


def bar(s: Scalar) -> Scalar:
    """The mirror involution q -> q^-1, a_i -> a_i^-1."""
    out = {scalars.pack(-e for e in scalars.unpack(key, s.arity)): c
           for key, c in s.terms.items()}
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
        terms[scalars.pack(key)] = int(t["c"])
    return Scalar(arity, terms, int(data["den_pow"]))


class CounitUndefinedError(ValueError):
    """Counit applied to an element with a genuine (q - q^-1) pole."""


def scalar_counit(s: Scalar) -> Scalar:
    """Evaluate at t = 0: a -> 1, d -> 0. Exact on all skein values."""
    if s.arity != 1:
        raise ArityError("scalar_counit expects an arity-1 element")
    out = scalars.counit_slot(s, 1)
    if out.den_pow:
        raise CounitUndefinedError("counit undefined on this element")
    return out


def q_power(e: int, arity: int) -> Scalar:
    return scalars.monomial(arity, 1, q=e)


def builtin_word(name: str) -> Word:
    return textio.parse_morse(corpus.BUILTIN_SOURCES[name])


def naive_eval(word: Word, rng: Optional[random.Random] = None) -> Scalar:
    """Full binary skein tree with randomized choices and no memo table.

    Component order, basepoints and which bad crossing to rewrite are all
    randomized. The traversal draw is kept fixed along chains of crossing
    flips (so the bad count decreases) and redrawn after each smoothing.
    Nothing is reduced, the arithmetic is Scalar arithmetic throughout,
    and the bad-crossing scan and the value of a descending diagram are
    this file's own, so the resolver shares only `analyze` and the
    crossing surgery with it. It keeps the resolver's node budget,
    `engine.DEFAULT_BUDGET`, and its error.
    """
    rng = rng or random.Random(0)
    state = [engine.DEFAULT_BUDGET, engine.DEFAULT_BUDGET]  # nodes left, limit
    return _naive(word, rng, None, state)


def _naive(word: Word, rng, carried, state) -> Scalar:
    state[0] -= 1
    if state[0] < 0:
        raise engine.BudgetError("skein resolution", state[1], "nodes", word)
    ana = analyze(word)
    if carried is None:
        order = list(range(len(ana.components)))
        rng.shuffle(order)
        members = [[] for _ in ana.components]
        for s, ci in enumerate(ana.slot_component):
            members[ci].append(s)
        carried = (order, [rng.choice(m) for m in members])
    bads = _first_passages_under(ana, *carried)
    if not bads:
        # a descending diagram: split unknots framed by their self-writhes
        sw = sum(c.self_writhe for c in ana.components)
        return (scalars.a_power(1, sw, 1)
                * scalars.delta(1, 1) ** len(ana.components))
    cross = ana.crossings[rng.choice(bads)]
    flipped = _naive(flip_crossing(word, cross.event_index), rng, carried, state)
    smoothed = _naive(smooth_crossing(word, cross), rng, None, state)
    return flipped + cross.sign * (scalars.q_minus_qinv(1) * smoothed)


def _first_passages_under(ana, order: list, basepoints: list) -> list:
    """The crossings first passed along their under-strand, walking the
    components in `order`, each from its slot in `basepoints`. Strand 0
    enters at the lower left, which is over for an `o` crossing."""
    seen = set()
    under = []
    for ci in order:
        start = slot = basepoints[ci]
        while True:
            slot, passage = ana.nxt[slot]
            if passage is not None and passage[0] not in seen:
                x, strand = passage
                seen.add(x)
                if strand != (0 if ana.crossings[x].tag == OVER_LEFT else 1):
                    under.append(x)
            if slot == start:
                break
    return under


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
        events[i + 1] = e._replace(pos=e.pos + _shift(f))
    else:
        f_before = f.pos - _shift(e)
        if f_before <= e.pos + 1 or f_before < 1:
            return None
        events[i] = f._replace(pos=f_before)
        events[i + 1] = e
    out = word._replace(events=tuple(events))
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
    out = word._replace(events=tuple(events))
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
    return word._replace(events=tuple(events))


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
    wa = word._replace(events=tuple(events[:at] + left + events[at:]))
    wb = word._replace(events=tuple(events[:at] + right + events[at:]))
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
    patch[1] = patch[1]._replace(tag=tag)
    events = list(word.events)
    events[at:at] = patch
    out = word._replace(events=tuple(events))
    try:
        analyze(out)
    except DiagramError:
        return None
    return out


# -- the ring on exponent tuples ----------------------------------------------
#
# A term dict keyed by exponent tuples (e_q, e_1, ..., e_n), with the
# canonical form found by ascending synthetic division by q^2 - 1 in each
# a-monomial: the form `scalars.Scalar` had before its keys were packed.


def ref_terms(s: Scalar) -> dict:
    """The terms of s keyed by exponent tuples."""
    return {scalars.unpack(key, s.arity): c for key, c in s.terms.items()}


def ref_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def ref_s_power(k: int, arity: int) -> dict:
    """The terms of (q - q^-1)^k."""
    return {(k - 2 * j,) + (0,) * arity: (-1) ** j * comb(k, j) for j in range(k + 1)}


def _ref_divide_once(terms: dict):
    groups: dict = {}
    for expo, c in terms.items():
        groups.setdefault(expo[1:], {})[expo[0] + 1] = c  # times q
    out = {}
    for apart, acc in groups.items():
        for m in range(min(acc), max(acc) - 1):
            c = acc.get(m, 0)
            if c:
                out[(m,) + apart] = -c
                acc[m] = 0
                acc[m + 2] = acc.get(m + 2, 0) + c
        if any(acc.values()):
            return None
    return out


def ref_canonical(terms: dict, den_pow: int) -> tuple:
    """(terms, den_pow) of num / (q - q^-1)^den_pow in canonical form."""
    terms = {e: c for e, c in terms.items() if c}
    while den_pow and terms:
        quo = _ref_divide_once(terms)
        if quo is None:
            break
        terms, den_pow = quo, den_pow - 1
    return terms, den_pow if terms else 0


def ref_mul(x: tuple, y: tuple) -> tuple:
    return ref_canonical(ref_product(x[0], y[0]), x[1] + y[1])


def ref_add(x: tuple, y: tuple, arity: int) -> tuple:
    k = max(x[1], y[1])
    out: dict = {}
    for terms, den_pow in (x, y):
        for e, c in ref_product(terms, ref_s_power(k - den_pow, arity)).items():
            out[e] = out.get(e, 0) + c
    return ref_canonical(out, k)
