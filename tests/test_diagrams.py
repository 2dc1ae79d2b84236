import random

import pytest

from skeinlab import corpus
from skeinlab import diagrams as D
from skeinlab import jaeger as J
from skeinlab import textio as T
from skeinlab.diagrams import (ANNULUS, BLACKBOARD, CAP, CUP, DOWN, Event, GREEN,
                               OVER_LEFT, OVER_RIGHT, RADIAL, RED, UP, VIOLET, Word)

import isotopy
from conftest import random_braid_closure, random_word


def ccw_unknot():
    return Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, "<")))


def test_validate_examples():
    D.analyze(ccw_unknot())
    assert "nonempty final profile" in isotopy.diagnose(Word(events=(Event(CUP, 1, ">"),)))
    bad = Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, ">")))
    assert "cap orientation mismatch" in isotopy.diagnose(bad)


def test_validate_reports_event_index():
    bad = Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, ">")))
    with pytest.raises(D.DiagramError) as err:
        D.analyze(bad)
    assert err.value.index == 1


def test_rotation_of_circles():
    assert isotopy.rotations(ccw_unknot()) == [1]
    cw = Word(events=(Event(CUP, 1, "<"), Event(CAP, 1, ">")))
    assert isotopy.rotations(cw) == [-1]


def test_annulus_core_bookkeeping():
    core = Word(ANNULUS, RADIAL, ((D.UP, GREEN),), ())
    assert isotopy.windings(core) == [1]
    assert isotopy.rotation_numbers(core) == [0]
    assert isotopy.rotation_numbers(core._replace(framing=BLACKBOARD)) == [1]
    with pytest.raises(D.DiagramError):
        isotopy.rotation_numbers(ccw_unknot()._replace(framing=RADIAL))


def test_writhe_examples():
    s1 = T.desugar_braid(2, [1], True)
    assert isotopy.writhe(s1) == 1
    assert len(D.analyze(s1).components) == 1
    assert isotopy.writhe(isotopy.mirror(s1)) == -1
    s13 = T.desugar_braid(2, [1, 1, 1], True)
    # independent count through the sign rule, crossing by crossing
    ana = D.analyze(s13)
    per_crossing = [D.oriented_sign(c.orients[0], c.orients[1], c.tag)
                    for c in ana.crossings]
    assert sum(per_crossing) == 3
    assert isotopy.writhe(s13) == 3


def _cross_product_sign(o_left, o_right, tag):
    """Reference: the strand through the lower left runs along (1,1) when
    up and (-1,-1) when down, the other along (-1,1) or (1,-1); the sign
    is that of the z-component of over x under."""
    d_slash = (1, 1) if o_left == UP else (-1, -1)
    d_back = (-1, 1) if o_right == UP else (1, -1)
    over, under = (d_slash, d_back) if tag == OVER_LEFT else (d_back, d_slash)
    z = over[0] * under[1] - over[1] * under[0]
    return 1 if z > 0 else -1


def test_oriented_sign_matches_the_cross_product():
    cases = [(l, r, t) for l in (UP, DOWN) for r in (UP, DOWN)
             for t in (OVER_LEFT, OVER_RIGHT)]
    for case in cases:
        assert D.oriented_sign(*case) == _cross_product_sign(*case), case
    assert D.oriented_sign(UP, UP, OVER_LEFT) == 1


def test_mirror_and_reverse_symmetries():
    rng = random.Random(21)
    for _ in range(25):
        w = random_word(rng)
        rots = isotopy.rotations(w)
        m = isotopy.mirror(w)
        assert isotopy.writhe(m) == -isotopy.writhe(w)
        assert sorted(isotopy.rotations(m)) == sorted(rots)
        r = isotopy.reverse(w)
        assert isotopy.writhe(r) == isotopy.writhe(w)
        assert sorted(isotopy.rotations(r)) == sorted(-x for x in rots)


def test_split_colours_examples():
    w = ccw_unknot()
    assert D.split_colours(w, 1) == [w]
    assert D.split_colours(w, 2) == [w, Word()]
    nested = Word(events=(Event(CUP, 1, ">", RED), Event(CUP, 2, ">", GREEN),
                          Event(CAP, 2, "<"), Event(CAP, 1, "<")))
    green, red = D.split_colours(nested, 2)
    assert len(D.analyze(green).components) == 1
    assert len(D.analyze(red).components) == 1
    assert isotopy.rotations(green) == [1]
    # both circles come out recoloured GREEN and renumbered to position 1
    assert green == red == w


def test_split_colours_keeps_unmixed_crossings():
    rng = random.Random(22)

    def shape(word, colour=GREEN):
        """(rotation, self-writhe) of the word's components of one colour."""
        comps = D.analyze(word).components
        return sorted((rot, c.self_writhe)
                      for rot, c in zip(isotopy.rotations(word), comps)
                      if c.colour == colour)

    for _ in range(20):
        w = random_word(rng, max_events=12, max_crossings=5)
        # colour components alternately; VIOLET stays absent
        ana = D.analyze(w)
        comp_colour = {c.index: GREEN if c.index % 2 == 0 else RED
                       for c in ana.components}
        cup_comp = {idx: ana.slot_component[l]
                    for idx, kind, _, l, _ in ana.extrema if kind == CUP}
        events = []
        for idx, e in enumerate(w.events):
            if e.kind == CUP:
                events.append(Event(CUP, e.pos, e.tag, comp_colour[cup_comp[idx]]))
            else:
                events.append(e)
        cw = Word(events=tuple(events))
        ana2 = D.analyze(cw)
        unmixed = sum(1 for c in ana2.crossings if c.colours[0] == c.colours[1])
        parts = D.split_colours(cw, 3)
        part_anas = [D.analyze(part) for part in parts]
        assert sum(len(a.crossings) for a in part_anas) == unmixed
        for colour, part, a in zip((GREEN, RED, VIOLET), parts, part_anas):
            assert {c.colour for c in a.components} <= {GREEN}
            assert shape(part) == shape(cw, colour)
        assert parts[2] == Word()

    words = [w for _, w in corpus.load_builtin()]
    words += [random_word(rng) for _ in range(30)]
    for w in words:
        assert D.total_rotation(w) == sum(isotopy.rotations(w))


def test_combine_and_power():
    u = ccw_unknot()
    both = D.combine(u, u)
    assert len(D.analyze(both).components) == 2
    core = Word(ANNULUS, BLACKBOARD, ((D.UP, GREEN),), ())
    sq = D.power(core, 2)
    assert sq.profile == ((D.UP, GREEN), (D.UP, GREEN))
    assert isotopy.windings(sq) == [1, 1]


def test_planar_closure_of_core_is_ccw_circle():
    core = Word(ANNULUS, BLACKBOARD, ((D.UP, GREEN),), ())
    closed = D.planar_closure(core)
    assert closed.surface == D.PLANE
    assert isotopy.rotations(closed) == [1]


def test_planar_closure_matches_blackboard_rotation():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 4)
        gens = [rng.choice([g for g in range(-(n - 1), n) if g])
                for _ in range(rng.randint(0, 5))]
        open_w = T.desugar_braid(n, gens, False)
        closed = D.planar_closure(open_w)
        assert open_w.framing == BLACKBOARD
        lhs = sorted(isotopy.rotation_numbers(open_w))
        rhs = sorted(isotopy.rotations(closed))
        assert lhs == rhs
        assert isotopy.writhe(closed) == isotopy.writhe(open_w)


def test_normalize_crossings_preserves_invariants():
    rng = random.Random(24)
    for _ in range(25):
        w = random_word(rng)
        nw = D.normalize_crossings(w, D.analyze(w))
        assert all(c.orients == (D.UP, D.UP) for c in D.analyze(nw).crossings)
        assert isotopy.writhe(nw) == isotopy.writhe(w)
        comps, new_comps = D.analyze(w).components, D.analyze(nw).components
        assert len(new_comps) == len(comps)
        assert sorted(isotopy.rotations(nw)) == sorted(isotopy.rotations(w))
        assert sorted(c.self_writhe for c in new_comps) == \
            sorted(c.self_writhe for c in comps)


def test_thread_meridian_links_once():
    core = Word(ANNULUS, BLACKBOARD, ((D.UP, GREEN),), ())
    threaded = D.thread_meridian(core)
    closed = D.planar_closure(threaded)
    ana = D.analyze(closed)
    assert len(ana.components) == 2
    inter = [c.sign for c in ana.crossings
             if ana.slot_component[c.slots[0]] != ana.slot_component[c.slots[1]]]
    assert abs(sum(inter)) == 2  # linking number one


def test_word_key_separates_words():
    rng = random.Random(25)
    by_key = {}
    for _ in range(30):
        w = random_word(rng)
        if D.word_key(w) in by_key:
            assert by_key[D.word_key(w)] == w
        by_key[D.word_key(w)] = w
    u = ccw_unknot()
    assert D.word_key(u) != D.word_key(isotopy.mirror(T.desugar_braid(2, [1], True)))
    assert D.word_key(u) == D.word_key(Word(events=u.events))


def _least_slot_union(ana, links) -> list:
    """Per slot, the least slot joined to it by the links."""
    parent = list(range(ana.n_slots))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(s) for s in range(ana.n_slots)]


def test_components_and_edges_match_a_union_over_links():
    rng = random.Random(26)
    words = [w for _, w in corpus.load_builtin()]
    words += [random_word(rng) for _ in range(40)]
    words += [random_braid_closure(rng) for _ in range(20)]
    for _ in range(20):
        n = rng.randint(1, 4)
        gens = [rng.choice([g for g in range(-(n - 1), n) if g])
                for _ in range(rng.randint(0, 6) if n > 1 else 0)]
        open_w = T.desugar_braid(n, gens, False)
        words += [open_w, Word(ANNULUS, RADIAL, open_w.profile, open_w.events)]
    assert any(w.surface == ANNULUS for w in words)
    for w in words:
        ana = D.analyze(w)
        assert sorted(s for s, _ in ana.nxt) == list(range(ana.n_slots))
        arcs = [(l, r) for _, _, _, l, r in ana.extrema]
        arcs += list(zip(ana.bottom, ana.top))
        passes = [pair for c in ana.crossings
                  for pair in ((c.slots[0], c.slots[3]), (c.slots[1], c.slots[2]))]
        edges = _least_slot_union(ana, arcs)
        comps = _least_slot_union(ana, arcs + passes)

        assert J.slot_edges(ana) == edges
        assert [c.basepoint for c in ana.components] == sorted(set(comps))
        assert [c.index for c in ana.components] == list(range(len(ana.components)))
        assert [ana.components[ana.slot_component[s]].basepoint
                for s in range(ana.n_slots)] == comps
        roles = J.crossing_edges(ana, J.slot_edges(ana))
        assert len(roles) == len(ana.crossings)
        for c, got in zip(ana.crossings, roles):
            x, y, u, v = c.slots
            slash = (x, v) if c.orients[0] == UP else (v, x)
            back = (y, u) if c.orients[1] == UP else (u, y)
            over, under = (slash, back) if c.tag == OVER_LEFT else (back, slash)
            assert got == (edges[over[0]], edges[under[0]],
                           edges[over[1]], edges[under[1]])
