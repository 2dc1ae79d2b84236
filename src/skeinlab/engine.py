"""Skein evaluation of closed diagrams.

The defining relations: positive minus negative crossing equals
(q - q^-1) times the oriented smoothing, a positive curl multiplies by
q^t, and a free loop contributes the loop value d. The resolver rewrites
the first crossing (in traversal order) whose first passage goes under,
and a descending diagram is a split union of unknots whose framings are
the component self-writhes:

    value = d^(#components) * q^(t * total self-writhe).

Before a word is resolved it is freely reduced: every adjacent pair of
crossings at the same position with opposite tags is a Reidemeister II
move, which leaves the framed invariant unchanged, so the pair is
dropped, and pairs that become adjacent cancel in turn. Flipping the
first bad crossing of the closure of s1^n leaves such a pair with its
neighbour, so T(2,n) resolves through n+2 words instead of O(n^2).

Every relation above is polynomial in q, a = q^t and d, so the resolver's
values live in Z[q^+-1, a^+-1, d]: a dict {(e_q, e_a, k): c} standing for
the sum of c * q^e_q * a^e_a * d^k. A step is `flipped + sign * (q - q^-1)
* smoothed` on those dicts; no division happens until `eval_one_colour`
converts the root once to the canonical Scalar
(`scalars.from_loop_polynomial`, where d = (a - a^-1) / (q - q^-1)).

Memoization is keyed on the exact serialized bytes of the reduced word;
each memo value is a pair [polynomial, Scalar or None], the second slot
caching the conversion for words that were evaluated as roots.
The randomized oracle `naive_eval` does no reduction and computes in
Scalar arithmetic throughout, so it stays an independent check on both
the memoized path and its polynomial arithmetic.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional

from . import diagrams
from .diagrams import (OVER_LEFT, PLANE, XING, Word, analyze, flip_crossing,
                       smooth_crossing, split_colours, word_key)
from . import scalars
from .scalars import Scalar

DEFAULT_BUDGET = 2_000_000


class BudgetError(RuntimeError):
    """A stage that ran past its work limit. Every budget in the package
    reports through this one type: the skein resolver and `naive_eval`
    (nodes), `coproduct.coproduct_diagram` (walk calls) and
    `jaeger.state_sum` (labellings). The message names the stage, the
    limit and the offending word; `word` keeps the full word and `budget`
    the limit."""

    def __init__(self, stage: str, limit: int, unit: str, word: Word):
        self.word = word
        self.budget = limit
        super().__init__(f"{stage} exceeded its budget of {limit} {unit}; "
                         f"offending word: {diagrams.describe_word(word)}")


class EvalError(ValueError):
    pass


def _require_closed_plane(word: Word) -> None:
    if word.surface != PLANE:
        raise EvalError("only closed plane diagrams evaluate to scalars; "
                        "annulus elements need the coproduct machinery")


def _bad_crossings(ana, order=None, basepoints=None):
    """Indices of the crossings traversed under before over, in traversal
    order; `order` and `basepoints` go to `diagrams.passage_sequence`."""
    seen = set()
    for ci, strand in diagrams.passage_sequence(ana, order, basepoints):
        if ci not in seen:
            seen.add(ci)
            if strand != (0 if ana.crossings[ci].tag == OVER_LEFT else 1):
                yield ci


@lru_cache(maxsize=None)
def _loop_power(loops: int) -> Scalar:
    """d^loops; Scalars are immutable, so the cached values are shared."""
    return scalars.delta(1, 1) ** loops


def _base_value(ana) -> Scalar:
    sw = sum(c.self_writhe for c in ana.components)
    return scalars.monomial(1, 1, a=[sw]) * _loop_power(len(ana.components))


def reduce_r2(word: Word) -> Word:
    """Drop Reidemeister II pairs: adjacent crossings at one position with
    opposite tags. The stack lets pairs cascade, so the closure of
    s1 s2 s2^-1 s1^-1 loses all four crossings."""
    kept = []
    for e in word.events:
        if (e.kind == XING and kept and kept[-1].kind == XING
                and kept[-1].pos == e.pos and kept[-1].tag != e.tag):
            kept.pop()
        else:
            kept.append(e)
    if len(kept) == len(word.events):
        return word
    return Word(word.surface, word.framing, word.profile, tuple(kept))


def eval_one_colour(word: Word, memo: Optional[dict] = None) -> Scalar:
    """The framed invariant of a closed single-colour plane diagram,
    as an arity-1 scalar in the colour's parameter. At most
    `DEFAULT_BUDGET` new nodes are resolved per call."""
    _require_closed_plane(word)
    if memo is None:
        memo = {}
    state = [DEFAULT_BUDGET, DEFAULT_BUDGET]  # nodes left, limit
    entry = _resolve(reduce_r2(word), memo, state)
    if entry[1] is None:
        entry[1] = scalars.from_loop_polynomial(entry[0])
    return entry[1]


def _step(flipped: dict, smoothed: dict, sign: int) -> dict:
    """flipped + sign * (q - q^-1) * smoothed on {(e_q, e_a, k): c} dicts."""
    out = dict(flipped)
    for (eq, ea, k), c in smoothed.items():
        c *= sign
        for key, v in (((eq + 1, ea, k), c), ((eq - 1, ea, k), -c)):
            v += out.get(key, 0)
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def _resolve(word: Word, memo: dict, state: list) -> list:
    """Memo entry [polynomial, Scalar or None] of an R2-reduced word;
    reduces each child before recursing."""
    key = word_key(word)
    hit = memo.get(key)
    if hit is not None:
        return hit
    state[0] -= 1
    if state[0] < 0:
        raise BudgetError("skein resolution", state[1], "nodes", word)
    ana = analyze(word)
    bad = next(_bad_crossings(ana), None)
    if bad is None:
        sw = sum(c.self_writhe for c in ana.components)
        poly = {(0, sw, len(ana.components)): 1}
    else:
        cross = ana.crossings[bad]
        flipped = _resolve(reduce_r2(flip_crossing(word, cross.event_index)),
                           memo, state)
        smoothed = _resolve(reduce_r2(smooth_crossing(word, cross)), memo, state)
        poly = _step(flipped[0], smoothed[0], cross.sign)
    return memo.setdefault(key, [poly, None])


def naive_eval(word: Word, rng: Optional[random.Random] = None) -> Scalar:
    """Full binary skein tree with randomized choices and no memo table.

    Component order, basepoints and which bad crossing to rewrite are all
    randomized. The traversal draw is kept fixed along chains of crossing
    flips (so the bad count decreases) and redrawn after each smoothing.
    At most `DEFAULT_BUDGET` nodes are visited.
    """
    _require_closed_plane(word)
    rng = rng or random.Random(0)
    state = [DEFAULT_BUDGET, DEFAULT_BUDGET]  # nodes left, limit
    return _naive(word, rng, None, state)


def _naive(word: Word, rng, carried, state) -> Scalar:
    state[0] -= 1
    if state[0] < 0:
        raise BudgetError("skein resolution", state[1], "nodes", word)
    ana = analyze(word)
    if carried is None:
        order = list(range(len(ana.components)))
        rng.shuffle(order)
        members = [[] for _ in ana.components]
        for s, ci in enumerate(ana.slot_component):
            members[ci].append(s)
        basepoints = {comp.index: rng.choice(members[comp.index])
                      for comp in ana.components}
        carried = (order, basepoints)
    bads = list(_bad_crossings(ana, *carried))
    if not bads:
        return _base_value(ana)
    cross = ana.crossings[rng.choice(bads)]
    flipped = _naive(flip_crossing(word, cross.event_index), rng, carried, state)
    smoothed = _naive(smooth_crossing(word, cross), rng, None, state)
    s = scalars.q_minus_qinv(1)
    return flipped + cross.sign * (s * smoothed)


def eval_terms(terms, n: int, memo: dict) -> Scalar:
    """Sum of coeff * (value of w_1 in slot 1) * ... * (value of w_n in
    slot n) over (words, coeff) pairs of closed one-colour plane words.

    This is the one place an evaluated word enters a tensor slot. Each
    product starts from the coefficient and takes one slot at a time, so
    it is reduced while it is small."""
    total = Scalar.zero(n)
    for words, coeff in terms:
        value = coeff
        for slot, w in enumerate(words, start=1):
            value = value * scalars.tensor_embed(eval_one_colour(w, memo), slot, n)
        total = total + value
    return total


def eval_multi_colour(word: Word, n: int, memo: Optional[dict] = None) -> Scalar:
    """The one-colour values of the word's colour parts
    (`diagrams.split_colours`) multiplied together, colour c in tensor
    slot c of n: one term of `eval_terms`, where an absent colour's empty
    part evaluates to 1.

    Mixed crossings are transparent, so the colours decouple exactly. The
    word itself is analyzed once, to validate it and read its colours.
    """
    _require_closed_plane(word)
    if memo is None:
        memo = {}
    ana = analyze(word)
    colours = {c.colour for c in ana.components}
    if not colours <= set(range(1, n + 1)):
        raise EvalError(f"colours {sorted(colours)} do not fit in 1..{n}")
    return eval_terms([(split_colours(word, n), Scalar.one(n))], n, memo)
