import random
from itertools import product

import pytest

from skeinlab import diagrams as D
from skeinlab import engine as E
from skeinlab import jaeger as J
from skeinlab import scalars as S
from skeinlab import textio as T
from skeinlab.diagrams import Event, Word, CUP, CAP

import isotopy
from conftest import random_word


def brute_force_labellings(word, n):
    ana = D.analyze(word)
    edges = J.edge_list(ana)
    out = []
    for vals in product(range(1, n + 1), repeat=len(edges)):
        f = dict(zip(edges, vals))
        if isotopy.is_admissible(ana, f):
            out.append(f)
    return out


def test_labelling_count_disjoint_circles():
    w = T.parse_morse("cup 1 >\ncap 1 <\ncup 1 >\ncap 1 <\ncup 1 >\ncap 1 <")
    assert len(list(J.enumerate_admissible(w, 2))) == 8


def test_labelling_count_matches_brute_force():
    rng = random.Random(51)
    for _ in range(12):
        w = random_word(rng, max_events=10, max_crossings=4)
        got = list(J.enumerate_admissible(w, 2))
        want = brute_force_labellings(w, 2)
        assert sorted(map(sorted, (g.items() for g in got))) == \
            sorted(map(sorted, (g.items() for g in want)))
    hopf = T.desugar_braid(2, [1, 1], True)
    assert len(list(J.enumerate_admissible(hopf, 2))) == \
        len(brute_force_labellings(hopf, 2)) == 5


def test_single_label_always_unique():
    rng = random.Random(52)
    for _ in range(8):
        w = random_word(rng, max_events=10, max_crossings=4)
        assert len(list(J.enumerate_admissible(w, 1))) == 1


def test_interaction_values():
    kink = T.desugar_braid(2, [1], True)
    labellings = list(J.enumerate_admissible(kink, 2))
    coeffs = sorted(S.pretty(J.interaction(kink, f, 2)) for f in labellings)
    want = sorted([S.pretty(S.Scalar.one(2)), S.pretty(S.Scalar.one(2)),
                   S.pretty(S.q_minus_qinv(2))])
    assert coeffs == want
    neg = T.desugar_braid(2, [-1], True)
    labellings = list(J.enumerate_admissible(neg, 2))
    coeffs = {S.pretty(J.interaction(neg, f, 2)) for f in labellings}
    assert S.pretty(-S.q_minus_qinv(2)) in coeffs


def test_state_sum_on_unknot_is_ring_coproduct_of_loop():
    w = T.parse_morse("cup 1 >\ncap 1 <")
    assert J.state_sum(w) == S.scalar_coproduct(S.delta(1, 1))


def test_state_sum_matches_ring_coproduct_on_corpus(plane_corpus, shared_memo):
    for name, w in plane_corpus:
        lhs = J.state_sum(w, 2, shared_memo)
        rhs = S.scalar_coproduct(E.eval_one_colour(w, shared_memo))
        assert lhs == rhs, name


def test_state_sum_on_general_words():
    rng = random.Random(54)
    for _ in range(15):
        w = random_word(rng)
        memo = {}
        assert J.state_sum(w, 2, memo) == \
            S.scalar_coproduct(E.eval_one_colour(w, memo))


def test_state_sum_multiplicative_under_disjoint_union():
    rng = random.Random(55)
    for _ in range(8):
        w1 = random_word(rng, max_events=8, max_crossings=3)
        w2 = random_word(rng, max_events=8, max_crossings=3)
        memo = {}
        assert J.state_sum(D.combine(w1, w2), 2, memo) == \
            J.state_sum(w1, 2, memo) * J.state_sum(w2, 2, memo)


def test_three_label_sum_unknot_value():
    w = T.parse_morse("cup 1 >\ncap 1 <")
    want = (S.delta(1, 3) * S.a_power(2, 1, 3) * S.a_power(3, 1, 3)
            + S.a_power(1, -1, 3) * S.delta(2, 3) * S.a_power(3, 1, 3)
            + S.a_power(1, -1, 3) * S.a_power(2, -1, 3) * S.delta(3, 3))
    assert J.state_sum(w, 3) == want


def test_three_label_sum_is_coassociative(plane_corpus, shared_memo):
    for name, w in plane_corpus:
        s3 = J.state_sum(w, 3, shared_memo)
        s2 = J.state_sum(w, 2, shared_memo)
        assert s3 == S.coproduct_slot(s2, 1), name
        assert s3 == S.coproduct_slot(s2, 2), name


def test_counit_absorption(plane_corpus, shared_memo):
    for name, w in plane_corpus:
        h = E.eval_one_colour(w, shared_memo)
        s2 = J.state_sum(w, 2, shared_memo)
        assert S.counit_slot(s2, 2) == h, name
        assert S.counit_slot(s2, 1) == h, name


def test_trace_lines_emitted():
    lines = []
    J.state_sum(T.desugar_braid(2, [1, 1], True), 2, trace=lines.append)
    assert len(lines) == 5
    assert all("labels=" in ln and "coeff=" in ln for ln in lines)


def test_state_sum_analyzes_its_input_once(monkeypatch):
    """Only the entry check analyzes: no labelling's smoothed word or
    colour part is analyzed again."""
    trefoil = T.desugar_braid(2, [1, 1, 1], True)
    unlink = T.parse_morse("cup 1 >\ncap 1 <\n" * 3)
    real = D.analyze
    calls = []

    def counting(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(J, "analyze", counting)
    monkeypatch.setattr(D, "analyze", counting)
    for w in (trefoil, unlink):
        for n in (2, 3):
            calls.clear()
            J.state_sum(w, n)
            assert calls == [w]


def test_state_sum_rejects_bad_inputs():
    core = Word(D.ANNULUS, D.RADIAL, ((D.UP, 1),), ())
    with pytest.raises(J.StateSumError):
        J.state_sum(core)
    mixed = Word(events=(Event(CUP, 1, ">", 1), Event(CAP, 1, "<"),
                         Event(CUP, 1, ">", 2), Event(CAP, 1, "<")))
    with pytest.raises(J.StateSumError):
        J.state_sum(mixed)


def test_state_sum_budget(monkeypatch):
    hopf = T.desugar_braid(2, [1, 1], True)  # two components, 5 labellings
    want = J.state_sum(hopf, 2)
    monkeypatch.setattr(J, "DEFAULT_BUDGET", 5)
    assert J.state_sum(hopf, 2) == want
    monkeypatch.setattr(J, "DEFAULT_BUDGET", 4)
    with pytest.raises(J.StateSumError, match="budget of 4 labellings"):
        J.state_sum(hopf, 2)
    # 2^3 single-label colourings exceed 7: refused before enumerating
    circles = T.parse_morse("cup 1 >\ncap 1 <\ncup 1 >\ncap 1 <\ncup 1 >\ncap 1 <")
    monkeypatch.setattr(J, "DEFAULT_BUDGET", 7)
    monkeypatch.setattr(J, "enumerate_admissible", None)
    with pytest.raises(J.StateSumError, match="^jaeger.state_sum exceeded"):
        J.state_sum(circles, 2)
