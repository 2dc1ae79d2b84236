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

Memoization is keyed on the exact serialized bytes of the reduced word.
The randomized oracle `naive_eval` does no reduction,
so it stays an independent check on the memoized path.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product as iproduct
from typing import Optional

from . import diagrams
from .diagrams import (GREEN, ORANGE, OVER_LEFT, PLANE, RED, XING, Word,
                       analyze, flip_crossing, smooth_crossing, subdiagram,
                       word_key)
from . import scalars
from .scalars import Scalar

DEFAULT_BUDGET = 2_000_000


class BudgetError(RuntimeError):
    def __init__(self, word: Word, budget: int):
        self.word = word
        self.budget = budget
        super().__init__(
            f"skein resolution exceeded its budget of {budget} nodes; "
            f"offending word: {word_key(word).decode()}")


class EvalError(ValueError):
    pass


def _require_closed_plane(word: Word) -> None:
    if word.surface != PLANE:
        raise EvalError("only closed plane diagrams evaluate to scalars; "
                        "annulus elements need the coproduct machinery")


def _first_bad(ana, order=None, basepoints=None) -> Optional[int]:
    """Index of the first crossing traversed under before over, if any."""
    seen = set()
    for ci, strand in diagrams.passage_sequence(ana, order, basepoints):
        if ci in seen:
            continue
        seen.add(ci)
        over = 0 if ana.crossings[ci].tag == OVER_LEFT else 1
        if strand != over:
            return ci
    return None


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


def eval_one_colour(word: Word, memo: Optional[dict] = None,
                    budget: int = DEFAULT_BUDGET) -> Scalar:
    """The framed invariant of a closed single-colour plane diagram,
    as an arity-1 scalar in the colour's parameter."""
    _require_closed_plane(word)
    if memo is None:
        memo = {}
    state = [budget]
    return _resolve(reduce_r2(word), memo, state)


def _resolve(word: Word, memo: dict, state: list) -> Scalar:
    """Value of an R2-reduced word; reduces each child before recursing."""
    key = word_key(word)
    hit = memo.get(key)
    if hit is not None:
        return hit
    state[0] -= 1
    if state[0] < 0:
        raise BudgetError(word, state[0] + 1)
    ana = analyze(word)
    bad = _first_bad(ana)
    if bad is None:
        val = _base_value(ana)
    else:
        cross = ana.crossings[bad]
        flipped = _resolve(reduce_r2(flip_crossing(word, cross.event_index)),
                           memo, state)
        smoothed = _resolve(reduce_r2(smooth_crossing(word, cross.event_index, ana)),
                            memo, state)
        s = scalars.q_minus_qinv(1)
        val = flipped + cross.sign * (s * smoothed)
    memo.setdefault(key, val)
    return val


def naive_eval(word: Word, rng: Optional[random.Random] = None,
               budget: int = DEFAULT_BUDGET) -> Scalar:
    """Full binary skein tree with randomized choices and no memo table.

    Component order, basepoints and which bad crossing to rewrite are all
    randomized. The traversal draw is kept fixed along chains of crossing
    flips (so the bad count decreases) and redrawn after each smoothing.
    """
    _require_closed_plane(word)
    rng = rng or random.Random(0)
    state = [budget]
    return _naive(word, rng, None, state)


def _naive(word: Word, rng, carried, state) -> Scalar:
    state[0] -= 1
    if state[0] < 0:
        raise BudgetError(word, state[0] + 1)
    ana = analyze(word)
    if carried is None:
        order = list(range(len(ana.components)))
        rng.shuffle(order)
        basepoints = {}
        roots = {}
        for s in range(ana.n_slots):
            roots.setdefault(ana.comp_uf.find(s), []).append(s)
        for comp in ana.components:
            basepoints[comp.index] = rng.choice(roots[ana.comp_uf.find(comp.basepoint)])
        carried = (order, basepoints)
    order, basepoints = carried
    seen = set()
    bads = []
    for ci, strand in diagrams.passage_sequence(ana, order, basepoints):
        if ci in seen:
            continue
        seen.add(ci)
        over = 0 if ana.crossings[ci].tag == OVER_LEFT else 1
        if strand != over:
            bads.append(ci)
    if not bads:
        return _base_value(ana)
    cross = ana.crossings[rng.choice(bads)]
    flipped = _naive(flip_crossing(word, cross.event_index), rng, carried, state)
    smoothed = _naive(smooth_crossing(word, cross.event_index, ana), rng, None, state)
    s = scalars.q_minus_qinv(1)
    return flipped + cross.sign * (s * smoothed)


def eval_multi_colour(word: Word, n: int, memo: Optional[dict] = None,
                      budget: int = DEFAULT_BUDGET) -> Scalar:
    """Product over colours of the one-colour values of the subdiagrams.

    Mixed crossings are transparent, so the colours decouple exactly.
    Orange strands must have been resolved first.
    """
    _require_closed_plane(word)
    if memo is None:
        memo = {}
    ana = analyze(word)
    colours = {c.colour for c in ana.components}
    if ORANGE in colours:
        raise EvalError("orange strands must be resolved before evaluation")
    if not colours <= set(range(1, n + 1)):
        raise EvalError(f"colours {sorted(colours)} do not fit in 1..{n}")
    out = Scalar.one(n)
    for c in sorted(colours):
        part = eval_one_colour(subdiagram(word, {c}), memo, budget)
        out = out * scalars.tensor_embed(part, c, n)
    return out


def orange_resolutions(word: Word) -> list:
    """Expand each closed orange component into its green and red copies."""
    ana = analyze(word)
    orange = [c.index for c in ana.components if c.colour == ORANGE]
    comp_of_cup = {}
    for idx, kind, tag, l, r in ana.extrema:
        if kind == diagrams.CUP:
            comp_of_cup[idx] = ana.component_of_slot(l).index
    comp_of_profile = [ana.component_of_slot(s).index for s in ana.bottom]
    out = []
    for pick in iproduct((GREEN, RED), repeat=len(orange)):
        chosen = dict(zip(orange, pick))

        def colour_for(comp_index, old):
            return chosen.get(comp_index, old)

        events = []
        for idx, e in enumerate(word.events):
            if e.kind == diagrams.CUP:
                comp = comp_of_cup[idx]
                events.append(diagrams.Event(e.kind, e.pos, e.tag,
                                             colour_for(comp, e.colour)))
            else:
                events.append(e)
        profile = tuple(
            (o, colour_for(comp_of_profile[k], c))
            for k, (o, c) in enumerate(word.profile))
        out.append(Word(word.surface, word.framing, profile, tuple(events)))
    return out


def eval_orange(word: Word, n: int = 2, memo: Optional[dict] = None,
                budget: int = DEFAULT_BUDGET) -> Scalar:
    total = Scalar.zero(n)
    for resolved in orange_resolutions(word):
        total = total + eval_multi_colour(resolved, n, memo, budget)
    return total
