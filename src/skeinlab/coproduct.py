"""Diagram-level coproduct by local box rewriting, and its verification.

The rewriting path never computes a rotation number. Every crossing is
first isotoped into the upward form by cup/cap conjugation; the expansion
then walks the word once, branching over strand labels:

  * a cup or cap of label c picks up a monomial dressing from the table
    below;
  * a crossing with equal labels stays as a crossing of that colour, one
    with distinct labels is transparent and disappears;
  * an upward crossing whose incoming labels put the larger one on the
    under-strand entry side additionally branches into the 0-smoothing,
    contributing sgn(v)(q - q^-1).

The dressing table realizes, per closed component of label c, the factor
a_2^{rotation} for c = 1 and a_1^{-rotation} for c = 2. On the annulus
with the blackboard framing each passage through the gluing profile
picks up the same unit, one power per winding.

Which side of a cutting smoothing carries the larger label, the sign of
the dressing exponents, and the winding sign are not readable from the
source figures. Each is a constant in one private function (_dressing,
_winding, _cut_eligible; the state sum's pairing is
jaeger._rotation_correction), pinned by the calibration anchors: the
coproduct of the counterclockwise unknot, both framed annulus core
computations, and path agreement with the state sum on the unknot, a
kink, the Hopf link and the sideways one-crossing curls.
tests/test_coproduct.py::test_calibration_unique_survivor substitutes
every alternative and shows this choice is the only survivor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional

from . import diagrams, engine, jaeger, scalars, textio
from .diagrams import (ANNULUS, BLACKBOARD, CAP, CUP, Event, GREEN, LEFTMOVING,
                       OVER_LEFT, PLANE, RADIAL, RIGHTMOVING, UP, Word, XING,
                       analyze)
from .scalars import Scalar


DEFAULT_BUDGET = 2_000_000
ITERATED_BUDGET = 200_000  # 6,360 terms is the most any test or benchmark input builds


class CoproductError(ValueError):
    pass


def _is_empty(word: Word) -> bool:
    return not word.events and not word.profile


@dataclass
class CoproductElement:
    """Formal sum of coefficient times tuples of one-coloured words."""
    slots: int
    surface: str
    terms: dict = field(default_factory=dict)

    def add(self, words: tuple, coeff: Scalar) -> None:
        if coeff.arity != self.slots:
            raise scalars.ArityError("coefficient arity must match slot count")
        cur = self.terms.get(words)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(words, None)
        else:
            self.terms[words] = new

    def __mul__(self, other: "CoproductElement") -> "CoproductElement":
        """Slot-wise product: disjoint union on the plane, stacking on the
        annulus."""
        if (self.slots, self.surface) != (other.slots, other.surface):
            raise CoproductError("cannot multiply elements of different shapes")
        out = CoproductElement(self.slots, self.surface)
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                words = tuple(diagrams.combine(a, b) for a, b in zip(t1, t2))
                out.add(words, c1 * c2)
        return out

    def evaluate(self, memo: Optional[dict] = None) -> Scalar:
        """The plane element's value: its own terms through
        `engine.eval_terms`, slot word i in tensor slot i."""
        if self.surface != PLANE:
            raise CoproductError("annulus elements have no scalar evaluation; "
                                 "use annulus_eval_family")
        if memo is None:
            memo = {}
        return engine.eval_terms(self.terms.items(), self.slots, memo)

    def _slot_texts(self) -> dict:
        """The `textio.render_morse` text of each distinct slot word,
        rendered once per element."""
        texts: dict = {}
        for words in self.terms:
            for w in words:
                if w not in texts:
                    texts[w] = textio.render_morse(w)
        return texts

    def json_text(self) -> str:
        """The element as JSON, `{"slots": n, "surface": s, "terms":
        [{"coeff": scalar, "diagrams": [text, ...]}, ...]}` with `indent=2`
        and sorted keys, rows in the order of their diagram texts: the bytes
        `json.dumps` writes, filled into templates for this fixed shape.
        Each distinct slot word is rendered and quoted once, and each
        distinct coefficient written once."""
        texts = self._slot_texts()
        quoted = {w: json.dumps(t) for w, t in texts.items()}
        pad = " " * 6  # a row's keys
        written = {c: textio.scalar_json(c, pad) for c in set(self.terms.values())}
        rows = [f'{{\n{pad}"coeff": {written[coeff]},'
                f'\n{pad}"diagrams": {textio.json_list([quoted[w] for w in words], pad)}'
                f'\n    }}'
                for words, coeff in sorted(self.terms.items(),
                                           key=lambda kv: [texts[w] for w in kv[0]])]
        return (f'{{\n  "slots": {self.slots},\n  "surface": {json.dumps(self.surface)},'
                f'\n  "terms": {textio.json_list(rows, "  ")}\n}}')

    def pretty(self) -> str:
        """One line per term, `(coefficient)  *  [slot | slot]`, in the
        order of the slot words' keys. Each distinct slot word is rendered
        and keyed once, and each distinct coefficient written once."""
        texts = self._slot_texts()
        keys = {w: diagrams.word_key(w) for w in texts}
        docs = {w: textio.EMPTY_TOKEN if _is_empty(w)
                else t.replace("\n", "; ").rstrip("; ") for w, t in texts.items()}
        shown = {c: scalars.pretty(c) for c in set(self.terms.values())}
        lines = [f"({shown[coeff]})  *  [" + " | ".join(docs[w] for w in words) + "]"
                 for words, coeff in sorted(self.terms.items(),
                                            key=lambda kv: [keys[w] for w in kv[0]])]
        return "\n".join(lines) if lines else "0"


def _dressing(colour: int, kind: str, tag: str) -> tuple:
    """Exponent vector (e_a1, e_a2) of the extremum dressing, two labels."""
    if colour == 1 and kind == CUP and tag == RIGHTMOVING:
        return (0, 1)
    if colour == 1 and kind == CAP and tag == RIGHTMOVING:
        return (0, -1)
    if colour == 2 and kind == CUP and tag == LEFTMOVING:
        return (1, 0)
    if colour == 2 and kind == CAP and tag == LEFTMOVING:
        return (-1, 0)
    return (0, 0)


def _winding(orientation: str, colour: int) -> tuple:
    """Exponent vector of one blackboard annulus strand at the bottom
    profile: the dressing of one passage through the gluing profile."""
    w = 1 if orientation == UP else -1
    return (0, w) if colour == 1 else (-w, 0)


def _cut_eligible(cl: int, cr: int, tag: str) -> bool:
    """Does an upward crossing with incoming labels (cl, cr) also branch
    into its cutting smoothing? The larger label must enter under."""
    return (cr > cl) if tag == OVER_LEFT else (cl > cr)


def coproduct_diagram(word: Word) -> CoproductElement:
    """Two-colour splitting of a closed one-colour diagram.

    Output terms keep their diagrams un-normalized; evaluation is a
    separate step. On the annulus the word's own framing decides the
    winding dressing, matching the framed coproduct.

    A leaf of the walk adds its sign to an integer coefficient keyed by
    its start labels, its two slot-event sequences and its leaf key: the
    arity-2 key whose q field counts its cuts, powers of (q - q^-1), and
    whose a-fields hold its dressing. Each event moves a field by at most
    1, so a word with more events and strands than `scalars.EXP_MAX` is
    refused. After the walk each coefficient becomes one Word pair, whose
    events are those sequences, and one Scalar. At most `DEFAULT_BUDGET`
    walk calls are made per call; the next one raises `engine.BudgetError`.
    """
    ana = analyze(word)
    if len({c.colour for c in ana.components}) > 1:
        raise CoproductError("coproduct input must be single-coloured")
    nw = diagrams.normalize_crossings(word, ana)
    events = nw.events
    end = len(events)
    if end + len(nw.profile) > scalars.EXP_MAX:
        raise scalars.ExponentRangeError(
            f"{end} events and {len(nw.profile)} strands exceed the box walk's "
            f"exponent bound of {scalars.EXP_MAX}")
    # (start labels, slot-1 events, slot-2 events) -> {leaf key: sum of signs}
    acc: dict = {}
    limit = DEFAULT_BUDGET
    left = [limit]  # walk calls left

    # Each slot sequence grows with the walk as a tuple of Events, one
    # Event object per (kind, slot position, tag) in a call; a leaf only
    # adds its sign into `acc`, so no Word or Scalar is built until the
    # walk ends. The extremum dressings of both labels are looked up once
    # per call. The walk visits every branch and recurses, so the
    # recursion limit bounds its depth, until the merged-state frontier
    # (ROADMAP item 2) replaces it. Merging states belongs to that
    # frontier: a memo on (event index, labels) here holds every suffix.
    interned: dict = {}
    one = scalars.pack((0, 0, 0))
    dressing = {(kind, tag): tuple(scalars.pack((0,) + _dressing(c, kind, tag)) - one
                                   for c in (1, 2))
                for kind in (CUP, CAP) for tag in (RIGHTMOVING, LEFTMOVING)}
    cut = scalars.pack((1, 0, 0)) - one

    def event(kind, p, tag):
        ev = interned.get((kind, p, tag))
        if ev is None:
            ev = interned[kind, p, tag] = Event(kind, p, tag)
        return ev

    def walk(i, labels, s1, s2, sign, key):
        left[0] -= 1
        if left[0] < 0:
            raise engine.BudgetError("coproduct_diagram", limit, "walk calls", word)
        if i == end:
            if labels == start_labels:
                coeffs = acc.setdefault((start_labels, s1, s2), {})
                coeffs[key] = coeffs.get(key, 0) + sign
            return
        kind, pos, tag, _ = events[i]
        before = labels[:pos - 1]
        if kind == CUP:
            after = labels[pos - 1:]
            d1, d2 = dressing[CUP, tag]
            walk(i + 1, before + (1, 1) + after,
                 s1 + (event(CUP, before.count(1) + 1, tag),), s2, sign, key + d1)
            walk(i + 1, before + (2, 2) + after,
                 s1, s2 + (event(CUP, before.count(2) + 1, tag),), sign, key + d2)
        elif kind == CAP:
            c = labels[pos - 1]
            if c != labels[pos]:
                return
            ev = (event(CAP, before.count(c) + 1, tag),)
            rest = before + labels[pos + 1:]
            key += dressing[CAP, tag][c - 1]
            if c == 1:
                walk(i + 1, rest, s1 + ev, s2, sign, key)
            else:
                walk(i + 1, rest, s1, s2 + ev, sign, key)
        else:
            cl, cr = labels[pos - 1], labels[pos]
            if cl != cr:
                walk(i + 1, before + (cr, cl) + labels[pos + 1:], s1, s2, sign, key)
            elif cl == 1:
                walk(i + 1, labels, s1 + (event(XING, before.count(1) + 1, tag),), s2,
                     sign, key)
            else:
                walk(i + 1, labels, s1, s2 + (event(XING, before.count(2) + 1, tag),),
                     sign, key)
            if _cut_eligible(cl, cr, tag):
                walk(i + 1, labels, s1, s2, sign if tag == OVER_LEFT else -sign, key + cut)

    winding = nw.surface == ANNULUS and nw.framing == BLACKBOARD
    for start_labels in iproduct((1, 2), repeat=len(nw.profile)):
        key = one
        if winding:
            key += sum(scalars.pack((0,) + _winding(o, c)) - one
                       for (o, _), c in zip(nw.profile, start_labels))
        walk(0, start_labels, (), (), 1, key)

    out = CoproductElement(2, word.surface)
    while acc:
        (labels, *slots), coeffs = acc.popitem()
        words = tuple(
            Word(nw.surface, nw.framing,
                 tuple((o, GREEN) for (o, _), lab in zip(nw.profile, labels) if lab == c),
                 seq)
            for c, seq in zip((1, 2), slots))
        out.add(words, scalars.from_cut_terms(coeffs, 2))
    return out


def apply_counit(element: CoproductElement, slot: int) -> CoproductElement:
    """Drop one tensor slot, keeping only terms empty in that slot."""
    if not 1 <= slot <= element.slots:
        raise CoproductError(f"slot {slot} out of range")
    out = CoproductElement(element.slots - 1, element.surface)
    for words, coeff in element.terms.items():
        if not _is_empty(words[slot - 1]):
            continue
        out.add(words[:slot - 1] + words[slot:], scalars.counit_slot(coeff, slot))
    return out


def _box(word: Word, memo: dict, value: bool = False):
    """Δ(word), or its value, built once per memo; the tuple keys never
    meet the engine's byte keys."""
    key = ("box", word, value)
    if key not in memo:
        memo[key] = _box(word, memo).evaluate(memo) if value else coproduct_diagram(word)
    return memo[key]


def coproduct_iterated(word: Word, n: int, side: str = "left",
                       memo: Optional[dict] = None) -> CoproductElement:
    """Iterate the two-colour coproduct to n tensor slots, sharing box
    coproducts through `memo`. An expanded element of more than
    `ITERATED_BUDGET` terms raises `engine.BudgetError`."""
    if n < 2:
        raise CoproductError("iterated coproduct needs at least two slots")
    if memo is None:
        memo = {}
    element = _box(word, memo)
    while element.slots < n:
        slot = 1 if side == "left" else element.slots
        out = CoproductElement(element.slots + 1, element.surface)
        for words, coeff in element.terms.items():
            lifted = scalars.coproduct_slot(coeff, slot)
            for (d1, d2), c in _box(words[slot - 1], memo).terms.items():
                cc = scalars.rename_slots(c, (slot, slot + 1), out.slots)
                out.add(words[:slot - 1] + (d1, d2) + words[slot:], lifted * cc)
            if len(out.terms) > ITERATED_BUDGET:
                raise engine.BudgetError("coproduct_iterated", ITERATED_BUDGET,
                                         "terms", word)
        element = out
    return element


def annulus_eval_family(element: CoproductElement, k: int,
                        memo: Optional[dict] = None) -> dict:
    """Separating evidence for annulus elements: thread j test circles per
    slot through the hole, close into the plane, evaluate. Returns the
    vector indexed by the tuple of test-circle counts.

    Each entry is `engine.eval_terms` on the closed terms; a closure that
    recurs across entries is a memo hit, whose root Scalar the memo keeps."""
    if element.surface != ANNULUS:
        raise CoproductError("eval family applies to annulus elements")
    if memo is None:
        memo = {}

    def closed(w: Word, j: int) -> Word:
        for _ in range(j):
            w = diagrams.thread_meridian(w)
        return diagrams.planar_closure(w)

    out = {}
    for counts in iproduct(range(k + 1), repeat=element.slots):
        terms = ((tuple(map(closed, words, counts)), coeff)
                 for words, coeff in element.terms.items())
        out[counts] = engine.eval_terms(terms, element.slots, memo)
    return out


# -- identity suites -------------------------------------------------------


IDENTITIES = ("jaeger", "coassoc", "counit", "mult", "framing-remark")


@dataclass
class Report:
    identity: str
    lines: list = field(default_factory=list)
    failures: int = 0

    def record(self, name: str, ok: bool, witness: str) -> None:
        mark = "pass" if ok else "FAIL"
        extra = "" if ok else f"  [{witness}]"
        self.lines.append(f"{mark}  {self.identity}  {name}{extra}")
        if not ok:
            self.failures += 1

    def compare(self, name: str, *pairs) -> None:
        """Record whether the values of the (label, Scalar) pairs are all
        equal; a failure's witness is each `label value`, joined by ` vs `."""
        first = pairs[0][1]
        ok = all(value == first for _, value in pairs[1:])
        self.record(name, ok, "" if ok else " vs ".join(
            f"{label} {scalars.pretty(value)}" for label, value in pairs))

    def text(self) -> str:
        return "\n".join(self.lines)


def verify(identity: str, corpus, memo: Optional[dict] = None) -> Report:
    """Run one of the named `IDENTITIES` over (name, word) pairs.

    On the annulus, `mult` stacks the first entry w of each framing and
    compares Δ(w^k) with Δ(w)^k for k = 2, 3 as formal sums.

    Each Δ(w) and each plane Δ(w)'s value is built once per `memo`, and
    the suites share them; `mult`'s unions go through the box walk too.
    """
    if identity not in IDENTITIES:
        raise CoproductError(f"unknown identity {identity!r}")
    if memo is None:
        memo = {}
    report = Report(identity)
    plane_words = [(n, w) for n, w in corpus if w.surface == PLANE]
    annulus_words = [(n, w) for n, w in corpus if w.surface == ANNULUS]

    if identity == "jaeger":
        for name, w in plane_words:
            report.compare(name, ("state sum", jaeger.state_sum(w, 2, memo)),
                           ("boxes", _box(w, memo, True)),
                           ("ring", scalars.scalar_coproduct(
                               engine.eval_one_colour(w, memo))))
    elif identity == "coassoc":
        for name, w in plane_words:
            report.compare(name, ("3-label", jaeger.state_sum(w, 3, memo)),
                           ("left", coproduct_iterated(w, 3, "left", memo).evaluate(memo)),
                           ("right", coproduct_iterated(w, 3, "right", memo).evaluate(memo)))
    elif identity == "counit":
        for name, w in plane_words:
            h = engine.eval_one_colour(w, memo)
            element = _box(w, memo)
            report.compare(name, ("value", h),
                           ("counit-2", apply_counit(element, 2).evaluate(memo)),
                           ("counit-1", apply_counit(element, 1).evaluate(memo)))
    elif identity == "mult":
        valued = [(n, w, _box(w, memo, True)) for n, w in plane_words]
        for (n1, w1, v1), (n2, w2, v2) in iproduct(valued, valued):
            union = _box(diagrams.combine(w1, w2), memo, True)
            report.compare(f"{n1}|{n2}", ("union", union), ("product", v1 * v2))
        first: dict = {}
        for name, w in annulus_words:
            first.setdefault(w.framing, (name, w))
        for framing, (name, base) in sorted(first.items()):
            split = power = _box(base, memo)
            for k in (2, 3):
                power = power * split
                ok = coproduct_diagram(diagrams.power(base, k)) == power
                report.record(f"{name}^{k} ({framing})", ok,
                              "" if ok else "formal sums differ")
    else:  # framing-remark: Δ(core) = c1 core⊗1 + c2 1⊗core
        for framing, c1, c2 in ((RADIAL, scalars.integer(1, 2), scalars.integer(1, 2)),
                                (BLACKBOARD, scalars.a_power(2, 1, 2),
                                 scalars.a_power(1, -1, 2))):
            core = Word(ANNULUS, framing, ((UP, GREEN),), ())
            empty = Word(ANNULUS, framing, (), ())
            want = CoproductElement(2, ANNULUS)
            want.add((core, empty), c1)
            want.add((empty, core), c2)
            got = _box(core, memo)
            ok = got == want
            report.record(f"core {framing}", ok, "" if ok else got.pretty())
    return report
