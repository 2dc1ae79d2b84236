"""Oriented framed link diagrams as Morse words on the plane or annulus.

A word is read bottom to top. Each event acts on the current strand
profile at a 1-based position:

  cup  pos >|<   inserts two strands; ">" creates (Down, Up), "<" (Up, Down)
  cap  pos >|<   removes two strands; ">" consumes (Up, Down), "<" (Down, Up)
  x    pos o|u   crossing; "o" means the strand entering at the lower left
                 passes over, "u" the one entering at the lower right

Annulus words carry a gluing profile: the bottom and top boundaries are
identified strand by strand. The framing tag selects how rotation numbers
are read off (radial: turning number of the cut-open word; blackboard:
turning number plus winding). `analyze` does not read them: the state sum
takes each colour part's summed rotation from `total_rotation`, and the
box walk dresses extrema and winding strands in `coproduct._dressing` and
`coproduct._winding`.

Turning contributions per extremum, in half units: cup> +1, cup< -1,
cap< +1, cap> -1. A counterclockwise circle (cup> then cap<) has rotation
number +1.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

PLANE = "plane"
ANNULUS = "annulus"
BLACKBOARD = "blackboard"
RADIAL = "radial"

UP = "^"
DOWN = "v"
CUP = "cup"
CAP = "cap"
XING = "x"
RIGHTMOVING = ">"
LEFTMOVING = "<"
OVER_LEFT = "o"
OVER_RIGHT = "u"

GREEN = 1
RED = 2
VIOLET = 3

_TURN = {(CUP, RIGHTMOVING): 1, (CUP, LEFTMOVING): -1,
         (CAP, LEFTMOVING): 1, (CAP, RIGHTMOVING): -1}


def total_rotation(word: Word) -> int:
    """The summed rotation numbers of a valid word's components: half the
    sum of its extremum turns. On the plane this is the summed blackboard
    rotation; no analysis is needed."""
    return sum(_TURN[(e.kind, e.tag)] for e in word.events if e.kind != XING) // 2


_CUP_PAIR = {RIGHTMOVING: (DOWN, UP), LEFTMOVING: (UP, DOWN)}
_CAP_PAIR = {RIGHTMOVING: (UP, DOWN), LEFTMOVING: (DOWN, UP)}
_FLIP = {OVER_LEFT: OVER_RIGHT, OVER_RIGHT: OVER_LEFT}


class DiagramError(ValueError):
    def __init__(self, message: str, index: Optional[int] = None):
        self.message = message
        self.index = index
        where = "" if index is None else f" at event {index}"
        super().__init__(message + where)


class Event(NamedTuple):
    kind: str
    pos: int
    tag: str
    colour: int = GREEN  # meaningful on cups only


class Word(NamedTuple):
    """A Morse word: a plain immutable value, hashed and compared as the
    tuple it is. `profile` is a tuple of (orientation, colour) pairs and
    `events` a tuple of `Event`s; neither is coerced, so callers pass
    tuples. Surgery builds new words with `_replace`. Nothing is checked
    here: `textio.parse_morse` is the validated entry point, and
    `analyze` validates a word built in code."""
    surface: str = PLANE
    framing: str = BLACKBOARD
    profile: tuple = ()  # ((orientation, colour), ...) for annulus words
    events: tuple = ()


def word_key(word: Word) -> bytes:
    """Exact serialized bytes of a word, used as memo key."""
    bits = [word.surface, word.framing,
            ",".join(f"{o}{c}" for o, c in word.profile)]
    bits += [f"{e.kind}.{e.pos}.{e.tag}.{e.colour}" for e in word.events]
    return "|".join(bits).encode()


def describe_word(word: Word) -> str:
    """A short name for a word in diagnostics: its surface, its event
    count and the first 60 bytes of its key."""
    key = word_key(word).decode()
    if len(key) > 60:
        key = key[:60] + "…"
    return f"{word.surface} word of {len(word.events)} events, {key}"


def oriented_sign(o_left: str, o_right: str, tag: str) -> int:
    """Crossing sign by the right-hand rule.

    The strand occupying lower-left/upper-right runs along (1,1) when
    oriented up and (-1,-1) when oriented down; the other strand along
    (-1,1) or (1,-1). Positive means the z-component of over x under is
    positive, which makes the braid generator (both strands up, "o") +1.
    """
    d_slash = (1, 1) if o_left == UP else (-1, -1)
    d_back = (-1, 1) if o_right == UP else (1, -1)
    over, under = (d_slash, d_back) if tag == OVER_LEFT else (d_back, d_slash)
    z = over[0] * under[1] - over[1] * under[0]
    return 1 if z > 0 else -1


class Component(NamedTuple):
    index: int
    colour: int
    self_writhe: int
    basepoint: int


class Crossing(NamedTuple):
    """One crossing of the analyzed word. Its edge roles in the state sum
    (over-in, under-in, over-out, under-out) are `jaeger.crossing_edges`."""
    event_index: int
    tag: str
    sign: int
    slots: tuple       # (below_left, below_right, above_left, above_right)
    orients: tuple     # (o_left, o_right) below the crossing
    colours: tuple     # (c_left, c_right) below the crossing


class Analysis(NamedTuple):
    """Full combinatorial scan of a valid word: its slots, crossings and
    components.

    Slots are numbered in the order the scan creates them: the bottom
    profile left to right, then per event the cup's left and right strand
    or the crossing's above-left and above-right strand. `nxt` maps each
    slot to the next one along the orientation, so it permutes the slots.
    A component is a cycle of `nxt`, named by its least slot (its
    basepoint), so components come in basepoint order. Edges are the
    state sum's and are read off the same cycles there (`jaeger.slot_edges`).
    """
    n_slots: int
    slot_orient: list
    slot_colour: list
    crossings: list
    extrema: list          # (event_index, kind, tag, slot_left, slot_right)
    bottom: list
    top: list
    nxt: list              # slot -> (next slot, passage or None)
    components: list
    slot_component: list   # slot -> component index


def analyze(word: Word) -> Analysis:
    """Validate a word and extract slots, components and crossings.

    Raises DiagramError with the offending event index on invalid input.
    """
    if word.surface not in (PLANE, ANNULUS):
        raise DiagramError(f"unknown surface {word.surface!r}")
    if word.framing not in (BLACKBOARD, RADIAL):
        raise DiagramError(f"unknown framing {word.framing!r}")
    if word.framing == RADIAL and word.surface != ANNULUS:
        raise DiagramError("radial framing is only legal on the annulus")
    if word.surface == PLANE and word.profile:
        raise DiagramError("plane words must have an empty boundary profile")

    slot_orient, slot_colour, nxt = [], [], []
    crossings, extrema, bottom = [], [], []

    def new_slot(orient, colour):
        slot_orient.append(orient)
        slot_colour.append(colour)
        nxt.append(None)
        return len(nxt) - 1

    strands = []
    for orient, colour in word.profile:
        if orient not in (UP, DOWN):
            raise DiagramError(f"bad profile orientation {orient!r}")
        s = new_slot(orient, colour)
        strands.append(s)
        bottom.append(s)

    for idx, ev in enumerate(word.events):
        width = len(strands)
        if ev.kind == XING:
            if width < 2:
                raise DiagramError(f"crossing on a profile of {width} strands", idx)
            if not 1 <= ev.pos <= width - 1:
                raise DiagramError(f"crossing position {ev.pos} outside 1..{width - 1}", idx)
            if ev.tag not in (OVER_LEFT, OVER_RIGHT):
                raise DiagramError(f"bad crossing tag {ev.tag!r}", idx)
            x, y = strands[ev.pos - 1], strands[ev.pos]
            o_l, o_r = slot_orient[x], slot_orient[y]
            c_l, c_r = slot_colour[x], slot_colour[y]
            u = new_slot(o_r, c_r)   # above left continues the right strand
            v = new_slot(o_l, c_l)   # above right continues the left strand
            strands[ev.pos - 1], strands[ev.pos] = u, v
            ci = len(crossings)
            sign = oriented_sign(o_l, o_r, ev.tag)
            crossings.append(Crossing(idx, ev.tag, sign, (x, y, u, v),
                                      (o_l, o_r), (c_l, c_r)))
            if o_l == UP:
                nxt[x] = (v, (ci, 0))
            else:
                nxt[v] = (x, (ci, 0))
            if o_r == UP:
                nxt[y] = (u, (ci, 1))
            else:
                nxt[u] = (y, (ci, 1))
            continue
        if ev.kind == CUP:
            if not 1 <= ev.pos <= width + 1:
                raise DiagramError(f"cup position {ev.pos} outside 1..{width + 1}", idx)
            if ev.tag not in _CUP_PAIR:
                raise DiagramError(f"bad cup tag {ev.tag!r}", idx)
            o_l, o_r = _CUP_PAIR[ev.tag]
            l = new_slot(o_l, ev.colour)
            r = new_slot(o_r, ev.colour)
            strands[ev.pos - 1:ev.pos - 1] = [l, r]
        elif ev.kind == CAP:
            if width < 2:
                raise DiagramError(f"cap on a profile of {width} strands", idx)
            if not 1 <= ev.pos <= width - 1:
                raise DiagramError(f"cap position {ev.pos} outside 1..{width - 1}", idx)
            if ev.tag not in _CAP_PAIR:
                raise DiagramError(f"bad cap tag {ev.tag!r}", idx)
            l, r = strands[ev.pos - 1], strands[ev.pos]
            want = _CAP_PAIR[ev.tag]
            got = (slot_orient[l], slot_orient[r])
            if got != want:
                raise DiagramError(
                    f"cap orientation mismatch: expected {want}, found {got}", idx)
            if slot_colour[l] != slot_colour[r]:
                raise DiagramError(
                    f"cap colour mismatch: {slot_colour[l]} vs {slot_colour[r]}", idx)
            del strands[ev.pos - 1:ev.pos + 1]
        else:
            raise DiagramError(f"unknown event kind {ev.kind!r}", idx)
        # a cup or cap: a right-moving extremum runs from left to right
        extrema.append((idx, ev.kind, ev.tag, l, r))
        if ev.tag == RIGHTMOVING:
            nxt[l] = (r, None)
        else:
            nxt[r] = (l, None)

    if word.surface == PLANE:
        if strands:
            raise DiagramError(
                f"nonempty final profile ({len(strands)} strands) on a closed plane word")
    else:
        got = tuple((slot_orient[s], slot_colour[s]) for s in strands)
        if got != word.profile:
            raise DiagramError(
                f"final profile {got} does not match the gluing profile {word.profile}")
        for b, t in zip(bottom, strands):
            if slot_orient[b] == UP:
                nxt[t] = (b, None)
            else:
                nxt[b] = (t, None)

    # Components, each named by its least slot: ascending slots meet
    # every cycle first at its least slot.
    n_slots = len(nxt)
    slot_component = [-1] * n_slots
    basepoints = []
    for start in range(n_slots):
        if slot_component[start] >= 0:
            continue
        s = start
        while slot_component[s] < 0:
            slot_component[s] = len(basepoints)
            s = nxt[s][0]
        basepoints.append(start)

    # Self-writhes: the resolver's framing correction per component.
    selfw = [0] * len(basepoints)
    for c in crossings:
        x, y, u, v = c.slots
        if slot_component[x] == slot_component[y]:
            selfw[slot_component[x]] += c.sign
    components = [Component(i, slot_colour[root], selfw[i], root)
                  for i, root in enumerate(basepoints)]
    return Analysis(n_slots, slot_orient, slot_colour, crossings, extrema,
                    bottom, strands, nxt, components, slot_component)


def passage_sequence(ana: Analysis, order: Optional[list] = None,
                     basepoints: Optional[dict] = None) -> list:
    """Flatten crossing passages by walking each component from its basepoint.

    Returns a list of (crossing index, strand id) in traversal order.
    Components default to basepoint order; both the component order and the
    per-component starting slot can be overridden (the naive resolver feeds
    randomized choices here).
    """
    comps = list(ana.components) if order is None else [ana.components[i] for i in order]
    out = []
    for comp in comps:
        start = comp.basepoint if basepoints is None else basepoints[comp.index]
        slot = start
        while True:
            nxt, passage = ana.nxt[slot]
            if passage is not None:
                out.append(passage)
            slot = nxt
            if slot == start:
                break
    return out


# -- word surgery ---------------------------------------------------------


def flip_crossing(word: Word, event_index: int) -> Word:
    e = word.events[event_index]
    if e.kind != XING:
        raise DiagramError("not a crossing", event_index)
    events = word.events
    return word._replace(events=events[:event_index] + (e._replace(tag=_FLIP[e.tag]),)
                         + events[event_index + 1:])


def smoothing_patch(orients: tuple, pos: int, colour: int) -> tuple:
    """The events of the oriented 0-smoothing of a crossing at `pos` whose
    strands run `orients` below it. Equal orientations: none, the
    crossing is simply dropped. Opposite orientations: a turnback, a cap
    followed by a cup of `colour`, ">" for (up, down) and "<" for
    (down, up)."""
    if orients[0] == orients[1]:
        return ()
    tag = RIGHTMOVING if orients[0] == UP else LEFTMOVING
    return (Event(CAP, pos, tag), Event(CUP, pos, tag, colour))


def smooth_crossing(word: Word, cross: Crossing) -> Word:
    """Replace a crossing of the word's analysis by its oriented
    0-smoothing, the cup taking the colour of the crossing's left strand."""
    i = cross.event_index
    events = word.events
    patch = smoothing_patch(cross.orients, events[i].pos, cross.colours[0])
    return word._replace(events=events[:i] + patch + events[i + 1:])


def _normalize_one(e: Event, orients: tuple) -> list:
    """Rewrite the crossing event e into cup/cap conjugates of an up-up
    crossing; returns the replacement event list."""
    p = e.pos
    if orients == (UP, UP):
        return [e]
    if orients == (UP, DOWN):
        return [Event(CUP, p, RIGHTMOVING, e.colour),
                Event(XING, p + 1, _FLIP[e.tag]),
                Event(CAP, p + 2, RIGHTMOVING)]
    if orients == (DOWN, UP):
        return [Event(CUP, p + 2, LEFTMOVING, e.colour),
                Event(XING, p + 1, _FLIP[e.tag]),
                Event(CAP, p, LEFTMOVING)]
    return [Event(CUP, p + 2, LEFTMOVING, e.colour),
            Event(CUP, p + 3, LEFTMOVING, e.colour),
            Event(XING, p + 2, e.tag),
            Event(CAP, p + 1, LEFTMOVING),
            Event(CAP, p, LEFTMOVING)]


def normalize_crossings(word: Word, ana: Analysis) -> Word:
    """Isotope the word so that every crossing has both strands upward.

    A word whose crossings already all point upward is returned as is.
    """
    if all(c.orients == (UP, UP) for c in ana.crossings):
        return word
    by_index = {c.event_index: c for c in ana.crossings}
    events = []
    for idx, e in enumerate(word.events):
        if e.kind == XING and by_index[idx].orients != (UP, UP):
            events.extend(_normalize_one(e, by_index[idx].orients))
        else:
            events.append(e)
    return word._replace(events=tuple(events))


def _step(prof: list, e: Event) -> None:
    """Apply one event of a valid word to a list of (orientation, colour)."""
    if e.kind == CUP:
        o_l, o_r = _CUP_PAIR[e.tag]
        prof[e.pos - 1:e.pos - 1] = [(o_l, e.colour), (o_r, e.colour)]
    elif e.kind == CAP:
        del prof[e.pos - 1:e.pos + 1]
    else:
        prof[e.pos - 1], prof[e.pos] = prof[e.pos], prof[e.pos - 1]


def split_colours(word: Word, n: int) -> list:
    """The one-colour parts of a valid word whose colours lie in 1..n.

    Part c holds the strands of colour c, recoloured GREEN, with their
    positions renumbered; mixed crossings are dropped. One pass over the
    events; a colour with no strands gives the empty word of the same
    surface and framing.
    """
    events = [[] for _ in range(n)]
    prof = list(word.profile)
    for e in word.events:
        c = e.colour if e.kind == CUP else prof[e.pos - 1][1]
        if e.kind != XING or prof[e.pos][1] == c:
            pos = sum(1 for _, k in prof[:e.pos - 1] if k == c) + 1
            events[c - 1].append(Event(e.kind, pos, e.tag))
        _step(prof, e)
    return [Word(word.surface, word.framing,
                 tuple((o, GREEN) for o, k in word.profile if k == c),
                 tuple(events[c - 1]))
            for c in range(1, n + 1)]


def combine(w1: Word, w2: Word) -> Word:
    """Disjoint union on the plane, stacking product on the annulus."""
    if w1.surface != w2.surface:
        raise DiagramError("cannot combine words on different surfaces")
    if w1.surface == PLANE:
        return w1._replace(events=w1.events + w2.events)
    if w1.framing != w2.framing:
        raise DiagramError("cannot stack annulus words with different framings")
    off = len(w1.profile)
    shifted = tuple(e._replace(pos=e.pos + off) for e in w2.events)
    return w1._replace(profile=w1.profile + w2.profile, events=w1.events + shifted)


def power(word: Word, k: int) -> Word:
    result = Word(surface=word.surface, framing=word.framing)
    for _ in range(k):
        result = combine(result, word)
    return result


def planar_closure(word: Word) -> Word:
    """Embed an annulus word in the plane, closing the gluing profile by
    nested arcs around the left side. An upward winding strand picks up
    one counterclockwise turn, matching the blackboard rotation number."""
    if word.surface != ANNULUS:
        raise DiagramError("planar closure applies to annulus words")
    p = len(word.profile)
    pre = []
    for k in range(p, 0, -1):
        orient, colour = word.profile[k - 1]
        tag = RIGHTMOVING if orient == UP else LEFTMOVING
        pre.append(Event(CUP, p - k + 1, tag, colour))
    body = [e._replace(pos=e.pos + p) for e in word.events]
    post = []
    for k in range(1, p + 1):
        orient, _ = word.profile[k - 1]
        tag = LEFTMOVING if orient == UP else RIGHTMOVING
        post.append(Event(CAP, p - k + 1, tag))
    return Word(surface=PLANE, framing=BLACKBOARD, profile=(),
                events=tuple(pre + body + post))


def thread_meridian(word: Word) -> Word:
    """Add one test circle through the annulus hole, linking the gluing
    bundle once: cup on the outside, one pass under, one pass over."""
    if word.surface != ANNULUS:
        raise DiagramError("meridian threading applies to annulus words")
    p = len(word.profile)
    block = [Event(CUP, p + 1, RIGHTMOVING)]
    for k in range(p, 0, -1):
        block.append(Event(XING, k, OVER_LEFT))
    for k in range(p + 1, 1, -1):
        block.append(Event(XING, k, OVER_RIGHT))
    block.append(Event(CAP, 1, LEFTMOVING))
    return word._replace(events=tuple(block) + word.events)

