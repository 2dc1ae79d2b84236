"""Composition state sum over admissible edge labellings.

Edges are the maximal strand arcs between crossings, named by least
slot as in `diagrams.Analysis`; this module alone assigns them their
roles at a crossing (`crossing_edges`). A labelling with
values in 1..n is admissible when every crossing either preserves labels
along both strands or is a cutting vertex: the 0-smoothing joins the
over-in edge to the under-out edge and the under-in edge to the over-out
edge, and at a cutting vertex the under-in/over-out pair carries the
strictly larger label. A cutting vertex contributes sgn(v)(q - q^-1) to
the interaction and is replaced by the smoothing before the word is split
into its label subdiagrams.

The rotation correction multiplies, for each label c with subdiagram
rotation r_c, the monomial made of a_j^{+r_c} for j > c and a_j^{-r_c}
for j < c; for two labels this is a_2^{r_1} a_1^{-r_2}. Which smoothing
strand carries the larger label and how the exponents pair are two faces
of one relabelling symmetry: flipping both reproduces the same sum, and
diagrams whose crossings all point upward cannot see the difference at
all. The one-crossing curls with a sideways crossing do separate the
choices, and they pin exactly this combination:
tests/test_coproduct.py::test_calibration_unique_survivor substitutes
each alternative and shows this one is the only survivor.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from . import diagrams, engine, scalars
from .diagrams import (CUP, DOWN, Event, OVER_LEFT, PLANE, UP, Word, XING,
                       analyze)
from .scalars import Scalar


DEFAULT_BUDGET = 10_000


class StateSumError(ValueError):
    pass


def _over_budget(word: Word, budget: int) -> StateSumError:
    return StateSumError(
        f"jaeger.state_sum exceeded its budget of {budget} labellings; "
        f"offending word: {diagrams.describe_word(word)}")


def edge_list(ana) -> list:
    return sorted(set(ana.slot_edge))


def crossing_edges(ana) -> list:
    """The edges meeting at each crossing, in crossing order, as
    (over-in, under-in, over-out, under-out) tuples of edge ids."""
    roles = []
    for c in ana.crossings:
        x, y, u, v = c.slots
        slash = (x, v) if c.orients[0] == UP else (v, x)
        back = (y, u) if c.orients[1] == UP else (u, y)
        (a, cc), (b, d) = (slash, back) if c.tag == OVER_LEFT else (back, slash)
        roles.append((ana.edge(a), ana.edge(b), ana.edge(cc), ana.edge(d)))
    return roles


def _pattern_possible(vals, n: int) -> bool:
    """Can the partial assignment (over-in, under-in, over-out, under-out)
    still become admissible?"""
    va, vb, vc, vd = vals

    def agree(x, y):
        return x is None or y is None or x == y

    if agree(va, vc) and agree(vb, vd):
        return True
    if agree(va, vd) and agree(vb, vc):
        hi = vb if vb is not None else vc
        lo = va if va is not None else vd
        if hi is None:
            return lo is None or lo < n
        if lo is None:
            return hi > 1
        return hi > lo
    return False


def enumerate_admissible(word: Word, n: int, ana=None) -> Iterator[dict]:
    """Depth-first enumeration with per-crossing pruning.

    Yields maps from edge id to label, in sorted edge order.
    """
    ana = ana or analyze(word)
    edges = edge_list(ana)
    incident: dict = {e: [] for e in edges}
    for roles in crossing_edges(ana):
        for e in set(roles):
            incident[e].append(roles)
    assignment: dict = {}

    def ok_around(edge) -> bool:
        for roles in incident[edge]:
            vals = tuple(assignment.get(e) for e in roles)
            if not _pattern_possible(vals, n):
                return False
        return True

    def dfs(k: int):
        if k == len(edges):
            yield dict(assignment)
            return
        e = edges[k]
        for lab in range(1, n + 1):
            assignment[e] = lab
            if ok_around(e):
                yield from dfs(k + 1)
            del assignment[e]

    yield from dfs(0)


def _is_cut(va, vb, vc, vd) -> bool:
    """A cutting vertex: labels follow the 0-smoothing and the under-in
    edge carries the strictly larger one."""
    return va == vd and vb == vc and vb > va


def cutting_vertices(ana, labelling: dict) -> list:
    return [i for i, roles in enumerate(crossing_edges(ana))
            if _is_cut(*(labelling[e] for e in roles))]


def interaction(word: Word, labelling: dict, n: int = 2, ana=None) -> Scalar:
    """Product of sgn(v)(q - q^-1) over the cutting vertices."""
    ana = ana or analyze(word)
    cuts = cutting_vertices(ana, labelling)
    sign = 1
    for i in cuts:
        sign *= ana.crossings[i].sign
    s = scalars.q_minus_qinv(n)
    return scalars.integer(sign, n) * s ** len(cuts)


def smoothed_coloured(word: Word, labelling: dict, ana) -> Word:
    """Smooth every cutting vertex and colour each arc by its label.
    The result is not validated: an admissible labelling gives every cap,
    the smoothing's included, two strands of one label."""
    cut_events = {}
    for i in cutting_vertices(ana, labelling):
        x = ana.crossings[i]
        cut_events[x.event_index] = x
    cup_slot = {idx: l for idx, kind, _, l, _ in ana.extrema if kind == CUP}
    events = []
    for idx, e in enumerate(word.events):
        if e.kind == CUP:
            lab = labelling[ana.edge(cup_slot[idx])]
            events.append(Event(CUP, e.pos, e.tag, lab))
        elif e.kind == XING:
            x = cut_events.get(idx)
            if x is None:
                events.append(e)
            else:
                o_l, o_r = x.orients
                if o_l == o_r:
                    pass
                else:
                    tag = diagrams.RIGHTMOVING if (o_l, o_r) == (UP, DOWN) else diagrams.LEFTMOVING
                    cup_lab = labelling[ana.edge(x.slots[2])]
                    events.append(Event(diagrams.CAP, e.pos, tag))
                    events.append(Event(CUP, e.pos, tag, cup_lab))
        else:
            events.append(e)
    profile = tuple((o, labelling[ana.edge(s)])
                    for (o, _), s in zip(word.profile, ana.bottom))
    return Word(word.surface, word.framing, profile, tuple(events))


def _rotation_correction(rots: list, n: int) -> Scalar:
    exps = [sum(rots[:j - 1]) - sum(rots[j:]) for j in range(1, n + 1)]
    return scalars.monomial(n, 1, a=exps)


def state_sum(word: Word, n: int = 2, memo: Optional[dict] = None,
              trace: Optional[Callable[[str], None]] = None) -> Scalar:
    """The n-label composition sum of a closed one-colour plane diagram.

    Each admissible labelling contributes its interaction, the rotation
    correction of the smoothed subdiagrams, and the product of their
    one-colour invariants, one tensor slot per label. The subdiagrams are
    the colour parts of the smoothed, label-coloured word
    (`diagrams.split_colours`), and each label's rotation is read off its
    part's extrema (`diagrams.total_rotation`), so one analysis of the
    input serves every labelling.

    At most `DEFAULT_BUDGET` labellings are admitted (10,000; no call in
    the test suite admits more than 210, none in the benchmark more
    than 30).
    Colouring each component in one label is always admissible, so a
    diagram with n^(components) > DEFAULT_BUDGET is refused before
    enumerating: an unlink of 14 circles at n = 2, of 9 at n = 3. The
    limit holds wherever the state sum runs, in `verify jaeger` and
    `verify coassoc` as well as in the `jaeger` command.
    """
    budget = DEFAULT_BUDGET
    if word.surface != PLANE:
        raise StateSumError("the scalar state sum needs a closed plane diagram")
    ana = analyze(word)
    if len({c.colour for c in ana.components}) > 1:
        raise StateSumError("state sum input must be single-coloured")
    if n ** len(ana.components) > budget:
        raise _over_budget(word, budget)
    if memo is None:
        memo = {}
    total = Scalar.zero(n)
    for count, f in enumerate(enumerate_admissible(word, n, ana), start=1):
        if count > budget:
            raise _over_budget(word, budget)
        parts = diagrams.split_colours(smoothed_coloured(word, f, ana), n)
        rots = [diagrams.total_rotation(part) for part in parts]
        coeff = interaction(word, f, n, ana) * _rotation_correction(rots, n)
        value = coeff
        for c, part in enumerate(parts, start=1):
            value = value * scalars.tensor_embed(engine.eval_one_colour(part, memo), c, n)
        if trace is not None:
            cuts = cutting_vertices(ana, f)
            labels = [f[e] for e in edge_list(ana)]
            trace(f"labels={labels} cuts={cuts} coeff={scalars.pretty(coeff)}")
        total = total + value
    return total

