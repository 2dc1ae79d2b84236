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

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional

from . import diagrams, engine, jaeger, scalars, textio
from .diagrams import (ANNULUS, BLACKBOARD, CAP, CUP, Event, GREEN, LEFTMOVING,
                       OVER_LEFT, PLANE, RADIAL, RIGHTMOVING, UP, Word, XING,
                       analyze)
from .scalars import Scalar


DEFAULT_BUDGET = 2_000_000


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

    def to_json(self) -> dict:
        rows = []
        for words, coeff in self.terms.items():
            rows.append({
                "coeff": scalars.to_json(coeff),
                "diagrams": [textio.render_morse(w) for w in words],
            })
        rows.sort(key=lambda r: r["diagrams"])
        return {"slots": self.slots, "surface": self.surface, "terms": rows}

    def pretty(self) -> str:
        lines = []
        for words, coeff in sorted(self.terms.items(),
                                   key=lambda kv: tuple(diagrams.word_key(w) for w in kv[0])):
            docs = [textio.EMPTY_TOKEN if _is_empty(w)
                    else textio.render_morse(w).replace("\n", "; ").rstrip("; ")
                    for w in words]
            lines.append(f"({scalars.pretty(coeff)})  *  [" + " | ".join(docs) + "]")
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
    its start labels, its two slot-event sequences, its power of
    (q - q^-1) and its a-exponents; after the walk each key becomes one
    Word pair, whose events are those sequences, and one Scalar. At most
    `DEFAULT_BUDGET` walk calls are made per call; the next one raises
    `engine.BudgetError`.
    """
    ana = analyze(word)
    if len({c.colour for c in ana.components}) > 1:
        raise CoproductError("coproduct input must be single-coloured")
    nw = diagrams.normalize_crossings(word, ana)
    events = nw.events
    end = len(events)
    # (start labels, slot-1 events, slot-2 events) -> {(s_pow, e1, e2): sum of signs}
    acc: dict = {}
    limit = DEFAULT_BUDGET
    left = [limit]  # walk calls left

    # Slot-event sequences grow with the walk as tuples of Events, and a
    # leaf only adds its sign into `acc`: no Word or Scalar is built until
    # the walk ends. The walk visits every branch and recurses, so the
    # recursion limit bounds its depth, until the merged-state frontier
    # (ROADMAP item 2) replaces it.
    def walk(i, labels, slots, sign, s_pow, e1, e2):
        left[0] -= 1
        if left[0] < 0:
            raise engine.BudgetError("coproduct_diagram", limit, "walk calls", word)
        if i == end:
            if labels == start_labels:
                coeffs = acc.setdefault((start_labels,) + slots, {})
                key = (s_pow, e1, e2)
                coeffs[key] = coeffs.get(key, 0) + sign
            return
        kind, pos, tag, _ = events[i]
        if kind == CUP:
            for c in (1, 2):
                d1, d2 = _dressing(c, CUP, tag)
                walk(i + 1, labels[:pos - 1] + (c, c) + labels[pos - 1:],
                     _append(slots, c, Event(CUP, labels[:pos - 1].count(c) + 1, tag)),
                     sign, s_pow, e1 + d1, e2 + d2)
        elif kind == CAP:
            c = labels[pos - 1]
            if c != labels[pos]:
                return
            d1, d2 = _dressing(c, CAP, tag)
            walk(i + 1, labels[:pos - 1] + labels[pos + 1:],
                 _append(slots, c, Event(CAP, labels[:pos - 1].count(c) + 1, tag)),
                 sign, s_pow, e1 + d1, e2 + d2)
        else:
            cl, cr = labels[pos - 1], labels[pos]
            swapped = labels[:pos - 1] + (cr, cl) + labels[pos + 1:]
            if cl == cr:
                walk(i + 1, swapped,
                     _append(slots, cl, Event(XING, labels[:pos - 1].count(cl) + 1, tag)),
                     sign, s_pow, e1, e2)
            else:
                walk(i + 1, swapped, slots, sign, s_pow, e1, e2)
            if _cut_eligible(cl, cr, tag):
                xsign = 1 if tag == OVER_LEFT else -1
                walk(i + 1, labels, slots, sign * xsign, s_pow + 1, e1, e2)

    winding = nw.surface == ANNULUS and nw.framing == BLACKBOARD
    for start_labels in iproduct((1, 2), repeat=len(nw.profile)):
        e1 = e2 = 0
        if winding:
            for (o, _), c in zip(nw.profile, start_labels):
                d1, d2 = _winding(o, c)
                e1 += d1
                e2 += d2
        walk(0, start_labels, ((), ()), 1, 0, e1, e2)

    out = CoproductElement(2, word.surface)
    while acc:
        (labels, *slots), coeffs = acc.popitem()
        terms: dict = {}
        for (s_pow, e1, e2), c in coeffs.items():
            for (eq, _, _), b in scalars._s_power_terms(s_pow, 2).items():
                key = (eq, e1, e2)
                terms[key] = terms.get(key, 0) + c * b
        words = tuple(
            Word(nw.surface, nw.framing,
                 tuple((o, GREEN) for (o, _), lab in zip(nw.profile, labels) if lab == c),
                 seq)
            for c, seq in zip((1, 2), slots))
        out.add(words, Scalar(2, terms))
    return out


def _append(slots: tuple, c: int, ev: Event) -> tuple:
    """The pair of slot-event sequences with `ev` added to slot c."""
    s1, s2 = slots
    return (s1 + (ev,), s2) if c == 1 else (s1, s2 + (ev,))


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


def _expand_slot(element: CoproductElement, slot: int) -> CoproductElement:
    out = CoproductElement(element.slots + 1, element.surface)
    for words, coeff in element.terms.items():
        sub = coproduct_diagram(words[slot - 1])
        lifted = scalars.coproduct_slot(coeff, slot)
        for (d1, d2), c in sub.terms.items():
            cc = scalars.rename_slots(c, (slot, slot + 1), element.slots + 1)
            out.add(words[:slot - 1] + (d1, d2) + words[slot:], lifted * cc)
    return out


def coproduct_iterated(word: Word, n: int, side: str = "left") -> CoproductElement:
    """Iterate the two-colour coproduct to n tensor slots."""
    if n < 2:
        raise CoproductError("iterated coproduct needs at least two slots")
    element = coproduct_diagram(word)
    while element.slots < n:
        slot = 1 if side == "left" else element.slots
        element = _expand_slot(element, slot)
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


def _same_annulus_element(lhs: CoproductElement, rhs: CoproductElement,
                          memo: dict) -> bool:
    """Are two annulus elements equal in the skein? Equal formal sums are;
    otherwise the level-2 eval families decide. The family is a function
    of the element, so the first test never changes the answer."""
    return (lhs == rhs
            or annulus_eval_family(lhs, 2, memo) == annulus_eval_family(rhs, 2, memo))


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

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def text(self) -> str:
        return "\n".join(self.lines)


def verify(identity: str, corpus, memo: Optional[dict] = None) -> Report:
    """Run one of the named `IDENTITIES` over (name, word) pairs.

    On the annulus, `mult` stacks the first entry w of each framing and
    compares Δ(w^k) with Δ(w)^k for k = 2, 3 as formal sums; only when
    the two sums differ does it build the separating eval family of each.
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
                           ("boxes", coproduct_diagram(w).evaluate(memo)),
                           ("ring", scalars.scalar_coproduct(
                               engine.eval_one_colour(w, memo))))
    elif identity == "coassoc":
        for name, w in plane_words:
            report.compare(name, ("3-label", jaeger.state_sum(w, 3, memo)),
                           ("left", coproduct_iterated(w, 3, "left").evaluate(memo)),
                           ("right", coproduct_iterated(w, 3, "right").evaluate(memo)))
    elif identity == "counit":
        for name, w in plane_words:
            h = engine.eval_one_colour(w, memo)
            element = coproduct_diagram(w)
            report.compare(name, ("value", h),
                           ("counit-2", apply_counit(element, 2).evaluate(memo)),
                           ("counit-1", apply_counit(element, 1).evaluate(memo)))
    elif identity == "mult":
        valued = [(n, w, coproduct_diagram(w).evaluate(memo)) for n, w in plane_words]
        for (n1, w1, v1), (n2, w2, v2) in iproduct(valued, valued):
            union = coproduct_diagram(diagrams.combine(w1, w2))
            report.compare(f"{n1}|{n2}", ("union", union.evaluate(memo)),
                           ("product", v1 * v2))
        by_framing: dict = {}
        for name, w in annulus_words:
            by_framing.setdefault(w.framing, []).append((name, w))
        for framing, entries in sorted(by_framing.items()):
            base = entries[0][1]
            split = coproduct_diagram(base)
            for k in (2, 3):
                lhs = coproduct_diagram(diagrams.power(base, k))
                rhs = split
                for _ in range(k - 1):
                    rhs = rhs * split
                ok = _same_annulus_element(lhs, rhs, memo)
                report.record(f"{entries[0][0]}^{k} ({framing})", ok,
                              "" if ok else "eval-family vectors differ")
    else:  # framing-remark: Δ(core) = c1 core⊗1 + c2 1⊗core
        for framing, c1, c2 in ((RADIAL, scalars.integer(1, 2), scalars.integer(1, 2)),
                                (BLACKBOARD, scalars.a_power(2, 1, 2),
                                 scalars.a_power(1, -1, 2))):
            core = Word(ANNULUS, framing, ((UP, GREEN),), ())
            empty = Word(ANNULUS, framing, (), ())
            want = CoproductElement(2, ANNULUS)
            want.add((core, empty), c1)
            want.add((empty, core), c2)
            got = coproduct_diagram(core)
            ok = got == want
            report.record(f"core {framing}", ok, "" if ok else got.pretty())
    return report
