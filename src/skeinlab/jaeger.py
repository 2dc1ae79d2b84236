"""Composition state sum over admissible edge labellings.

Edges are the maximal strand arcs between crossings. This module alone
names them (`slot_edges`: each edge by its least slot in the numbering of
`diagrams.Analysis`), orders them (ascending id, the order of the
enumeration and of the `--trace` lines) and assigns their roles at a
crossing (`crossing_edges`); `state_sum` derives ids and roles once per
call. A labelling with values in 1..n is admissible when every crossing
either preserves labels along both strands or is a cutting vertex: the
0-smoothing joins the over-in edge to the under-out edge and the under-in
edge to the over-out edge, and at a cutting vertex the under-in/over-out
pair carries the strictly larger label. The enumeration checks each
crossing once, by `_admissible`, when its last edge is labelled. A
cutting vertex contributes sgn(v)(q - q^-1) to the interaction and is
replaced by the smoothing before the word is split into its label
subdiagrams.

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
from .diagrams import CUP, Event, OVER_LEFT, PLANE, UP, Word, XING, analyze
from .scalars import Scalar


DEFAULT_BUDGET = 10_000


class StateSumError(ValueError):
    pass


def slot_edges(ana) -> list:
    """Each slot's edge id: the least slot of its run of a component's
    cycle between two crossing passages. Each cycle is walked from its
    basepoint and cut after every passage, starting after the last one so
    that no run wraps around."""
    nxt = ana.nxt
    edge = [0] * ana.n_slots
    for comp in ana.components:
        cycle = [comp.basepoint]
        s = nxt[comp.basepoint][0]
        while s != comp.basepoint:
            cycle.append(s)
            s = nxt[s][0]
        k = max((i + 1 for i, s in enumerate(cycle) if nxt[s][1] is not None),
                default=0)
        run = []
        for s in cycle[k:] + cycle[:k]:
            run.append(s)
            if nxt[s][1] is not None or len(run) == len(cycle):
                least = min(run)
                for r in run:
                    edge[r] = least
                run = []
    return edge


def crossing_edges(ana, edge: list) -> list:
    """The edges meeting at each crossing, in crossing order, as
    (over-in, under-in, over-out, under-out) tuples of the edge ids
    `edge` (`slot_edges`)."""
    roles = []
    for c in ana.crossings:
        x, y, u, v = c.slots
        slash = (x, v) if c.orients[0] == UP else (v, x)
        back = (y, u) if c.orients[1] == UP else (u, y)
        (a, cc), (b, d) = (slash, back) if c.tag == OVER_LEFT else (back, slash)
        roles.append((edge[a], edge[b], edge[cc], edge[d]))
    return roles


def _is_cut(va, vb, vc, vd) -> bool:
    """A cutting vertex: labels follow the 0-smoothing and the under-in
    edge carries the strictly larger one."""
    return va == vd and vb == vc and vb > va


def _admissible(va, vb, vc, vd) -> bool:
    """The rule: both strands keep their labels, or the crossing cuts."""
    return (va == vc and vb == vd) or _is_cut(va, vb, vc, vd)


def enumerate_admissible(edges: list, roles: list, n: int) -> Iterator[dict]:
    """The admissible labellings, in 1..n, of the edge ids `edges`,
    ascending, given the crossing roles `roles` (`crossing_edges`).

    A depth-first search labels the edges in order and checks each
    crossing once, by `_admissible`, when its last edge is labelled. It
    yields maps from edge id to label in lexicographic order over
    ascending edge ids, the order of the `--trace` lines."""
    index = {e: k for k, e in enumerate(edges)}
    closing = [[] for _ in edges]  # [k]: crossings whose last edge is edges[k]
    for r in roles:
        r = tuple(index[e] for e in r)
        closing[max(r)].append(r)
    labels = [0] * len(edges)

    def dfs(k: int):
        if k == len(edges):
            yield dict(zip(edges, labels))
            return
        for lab in range(1, n + 1):
            labels[k] = lab
            if all(_admissible(labels[a], labels[b], labels[c], labels[d])
                   for a, b, c, d in closing[k]):
                yield from dfs(k + 1)

    yield from dfs(0)


def cutting_vertices(roles: list, labelling: dict) -> list:
    """The indices of the crossings, with roles `roles`, that cut."""
    return [i for i, r in enumerate(roles) if _is_cut(*(labelling[e] for e in r))]


def interaction(ana, cuts: list, n: int) -> Scalar:
    """Product of sgn(v)(q - q^-1) over the cutting vertices `cuts`."""
    sign = 1
    for i in cuts:
        sign *= ana.crossings[i].sign
    s = scalars.q_minus_qinv(n)
    return scalars.integer(sign, n) * s ** len(cuts)


def smoothed_coloured(word: Word, labelling: dict, ana, edge: list,
                      cuts: list) -> Word:
    """Smooth the cutting vertices `cuts` (`diagrams.smoothing_patch`, the
    cup taking the label of the edge above left) and colour each arc by
    the label of its edge (`edge` maps slots to edge ids, `slot_edges`).
    The result is not validated: an admissible labelling gives every cap,
    the smoothing's included, two strands of one label."""
    cut_events = {}
    for i in cuts:
        x = ana.crossings[i]
        cut_events[x.event_index] = x
    cup_slot = {idx: l for idx, kind, _, l, _ in ana.extrema if kind == CUP}
    events = []
    for idx, e in enumerate(word.events):
        if e.kind == CUP:
            lab = labelling[edge[cup_slot[idx]]]
            events.append(Event(CUP, e.pos, e.tag, lab))
        elif e.kind == XING:
            x = cut_events.get(idx)
            if x is None:
                events.append(e)
            else:
                events += diagrams.smoothing_patch(x.orients, e.pos,
                                                   labelling[edge[x.slots[2]]])
        else:
            events.append(e)
    profile = tuple((o, labelling[edge[s]])
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
    input, and one derivation of its edges and their roles, serve every
    labelling. Enumeration collects one (parts, coefficient) pair per
    labelling; `engine.eval_terms` evaluates them all once it is done.

    At most `DEFAULT_BUDGET` labellings are admitted (10,000; no call in
    the test suite admits more than 210, none in the benchmark more
    than 30).
    Colouring each component in one label is always admissible, so a
    diagram with n^(components) > DEFAULT_BUDGET is refused before
    enumerating: an unlink of 14 circles at n = 2, of 9 at n = 3. Both
    refusals raise `engine.BudgetError`. The limit holds wherever the
    state sum runs, in `verify jaeger` and `verify coassoc` as well as in
    the `jaeger` command.
    """
    budget = DEFAULT_BUDGET
    if word.surface != PLANE:
        raise StateSumError("the scalar state sum needs a closed plane diagram")
    ana = analyze(word)
    if len({c.colour for c in ana.components}) > 1:
        raise StateSumError("state sum input must be single-coloured")
    if n ** len(ana.components) > budget:
        raise engine.BudgetError("jaeger.state_sum", budget, "labellings", word)
    if memo is None:
        memo = {}
    edge = slot_edges(ana)
    edges = sorted(set(edge))
    roles = crossing_edges(ana, edge)
    terms = []
    for count, f in enumerate(enumerate_admissible(edges, roles, n), start=1):
        if count > budget:
            raise engine.BudgetError("jaeger.state_sum", budget, "labellings", word)
        cuts = cutting_vertices(roles, f)
        parts = diagrams.split_colours(smoothed_coloured(word, f, ana, edge, cuts), n)
        rots = [diagrams.total_rotation(part) for part in parts]
        coeff = interaction(ana, cuts, n) * _rotation_correction(rots, n)
        if trace is not None:
            labels = [f[e] for e in edges]
            trace(f"labels={labels} cuts={cuts} coeff={scalars.pretty(coeff)}")
        terms.append((parts, coeff))
    return engine.eval_terms(terms, n, memo)

