import random
import threading

import pytest

from skeinlab import diagrams as D
from skeinlab import engine as E
from skeinlab import scalars as S
from skeinlab import textio as T
from skeinlab.diagrams import Event, Word, CUP, CAP, GREEN, RED, XING

import isotopy
from conftest import random_braid_closure, random_word


def d():
    return S.delta(1, 1)


def a(e=1):
    return S.a_power(1, e, 1)


def s():
    return S.q_minus_qinv(1)


def test_defining_relations():
    assert E.eval_one_colour(T.parse_morse("cup 1 >\ncap 1 <")) == d()
    kink = T.desugar_braid(2, [1], True)
    assert E.eval_one_colour(kink) == a() * d()
    unlink = T.parse_morse("cup 1 >\ncap 1 <\ncup 1 >\ncap 1 <")
    assert E.eval_one_colour(unlink) == d() * d()


def test_hopf_and_trefoil_values():
    # by hand: closure of x^2 = (q - q^-1) * closure(x) + closure(1)
    hopf = T.desugar_braid(2, [1, 1], True)
    assert E.eval_one_colour(hopf) == d() * d() + s() * a() * d()
    # closure of x^3 = (q - q^-1) closure(x^2) + closure(x), reduced once more
    tre = T.desugar_braid(2, [1, 1, 1], True)
    want = d() * (a() * S.q_power(2, 1) + a() * S.q_power(-2, 1) - a(-1))
    assert E.eval_one_colour(tre) == want
    assert S.specialize(E.eval_one_colour(tre), [1]) == S.q_power(3, 0)


def test_collapse_at_t_equals_one():
    rng = random.Random(41)
    for _ in range(40):
        w = random_braid_closure(rng)
        v = E.eval_one_colour(w)
        assert S.specialize(v, [1]) == S.q_power(isotopy.writhe(w), 0)


def test_mirror_and_reversal_laws():
    rng = random.Random(42)
    for _ in range(20):
        w = random_word(rng)
        v = E.eval_one_colour(w)
        assert E.eval_one_colour(isotopy.mirror(w)) == isotopy.bar(v)
        assert E.eval_one_colour(isotopy.reverse(w)) == v


def test_disjoint_union_multiplies():
    rng = random.Random(43)
    for _ in range(12):
        w1 = random_word(rng, max_events=10, max_crossings=4)
        w2 = random_word(rng, max_events=10, max_crossings=4)
        assert E.eval_one_colour(D.combine(w1, w2)) == \
            E.eval_one_colour(w1) * E.eval_one_colour(w2)


def test_isotopy_moves_leave_value_unchanged():
    rng = random.Random(44)
    checked = 0
    while checked < 30:
        w = random_word(rng, max_events=12, max_crossings=5)
        v = E.eval_one_colour(w)
        at = rng.randint(0, len(w.events))
        prof = isotopy.profiles(w)[at]
        if not prof:
            continue
        pos = rng.randint(1, len(prof))
        z = isotopy.insert_zigzag(w, at, pos, rng.choice(("left", "right")))
        if z is not None:
            assert E.eval_one_colour(z) == v
        if len(prof) >= 2:
            r2 = isotopy.insert_r2(w, at, rng.randint(1, len(prof) - 1),
                                   rng.choice("ou"))
            if r2 is not None:
                assert E.eval_one_colour(r2) == v
        if len(prof) >= 3:
            pair = isotopy.insert_r3_pair(w, at, rng.randint(1, len(prof) - 2),
                                          rng.choice("ou"))
            if pair is not None:
                wa, wb = pair
                assert E.eval_one_colour(wa) == E.eval_one_colour(wb)
        i = rng.randint(0, len(w.events) - 2)
        c = isotopy.commute_events(w, i)
        if c is not None:
            assert E.eval_one_colour(c) == v
        checked += 1


def test_twist_flip_both_curls_equal():
    rng = random.Random(45)
    for _ in range(15):
        w = random_word(rng, max_events=10, max_crossings=4)
        v = E.eval_one_colour(w)
        at = rng.randint(0, len(w.events))
        prof = isotopy.profiles(w)[at]
        if not prof:
            continue
        pos = rng.randint(1, len(prof))
        sign = rng.choice((1, -1))
        left = isotopy.add_kink(w, at, pos, rot=1, sign=sign)
        right = isotopy.add_kink(w, at, pos, rot=-1, sign=sign)
        if left is None or right is None:
            continue
        want = S.monomial(1, 1, a=[sign]) * v
        assert E.eval_one_colour(left) == want
        assert E.eval_one_colour(right) == want


def test_normalization_is_an_isotopy_for_eval():
    rng = random.Random(46)
    for _ in range(20):
        w = random_word(rng)
        assert E.eval_one_colour(D.normalize_crossings(w, D.analyze(w))) == E.eval_one_colour(w)


def test_naive_oracle_agrees():
    rng = random.Random(47)
    for _ in range(25):
        w = random_braid_closure(rng, max_crossings=6) if rng.random() < 0.5 \
            else random_word(rng, max_events=12, max_crossings=5)
        assert E.naive_eval(w, rng) == E.eval_one_colour(w)


def test_r2_pairs_cancel_in_cascade():
    # closure of s1 s2 s2^-1 s1^-1: the inner pair cancels, then the outer
    w = T.desugar_braid(3, [1, 2, -2, -1], True)
    reduced = E.reduce_r2(w)
    assert not any(e.kind == XING for e in reduced.events)
    unlink = T.desugar_braid(3, [], True)
    assert reduced == unlink
    assert E.eval_one_colour(w) == E.eval_one_colour(unlink) == d() ** 3


def test_r2_reduction_keeps_non_pairs():
    hopf = T.desugar_braid(2, [1, 1], True)  # same tags: a full twist
    assert E.reduce_r2(hopf) == hopf
    split = Word(events=(
        Event(CUP, 1, ">"), Event(CUP, 3, ">"), Event(XING, 2, "o"),
        Event(CUP, 5, ">"), Event(CAP, 5, "<"), Event(XING, 2, "u"),
        Event(CAP, 3, "<"), Event(CAP, 1, "<")))
    D.analyze(split)
    assert E.reduce_r2(split) == split
    assert E.eval_one_colour(split) == E.naive_eval(split) == d() ** 3


@pytest.mark.parametrize("n", [36, 200])
def test_torus_memo_is_linear(n):
    memo = {}
    E.eval_one_colour(T.desugar_braid(2, [1] * n, True), memo)
    assert len(memo) <= n + 2


def test_naive_oracle_agrees_across_r2_pairs():
    rng = random.Random(49)
    checked = 0
    while checked < 20:
        w = random_word(rng, max_events=10, max_crossings=4)
        at = rng.randint(0, len(w.events))
        prof = isotopy.profiles(w)[at]
        if len(prof) < 2:
            continue
        r2 = isotopy.insert_r2(w, at, rng.randint(1, len(prof) - 1), rng.choice("ou"))
        assert len(E.reduce_r2(r2).events) <= len(w.events)
        assert E.naive_eval(r2, rng) == E.eval_one_colour(r2) == E.eval_one_colour(w)
        checked += 1


def test_budget_error(monkeypatch):
    tre = T.desugar_braid(2, [1, 1, 1], True)
    monkeypatch.setattr(E, "DEFAULT_BUDGET", 2)
    with pytest.raises(E.BudgetError) as err:
        E.eval_one_colour(tre)
    assert err.value.word is not None
    # the message names the limit and a short form of the (kept) full word
    long_torus = T.desugar_braid(2, [1] * 300, True)
    monkeypatch.setattr(E, "DEFAULT_BUDGET", 3)
    for evaluate in (E.eval_one_colour, E.naive_eval):
        with pytest.raises(E.BudgetError) as err:
            evaluate(long_torus)
        text = str(err.value)
        assert err.value.budget == 3 and "budget of 3 nodes" in text
        assert len(err.value.word.events) > 100
        assert f"{len(err.value.word.events)} events" in text
        assert text.endswith("…") and len(text.encode()) < 300


def test_rejects_annulus_words():
    core = Word(D.ANNULUS, D.RADIAL, ((D.UP, GREEN),), ())
    with pytest.raises(E.EvalError):
        E.eval_one_colour(core)


def test_memo_is_thread_tolerant():
    rng = random.Random(48)
    words = [random_braid_closure(rng, max_crossings=7) for _ in range(8)]
    single = [E.eval_one_colour(w, {}) for w in words]
    memo = {}
    results = [None] * len(words)

    def run(i):
        results[i] = E.eval_one_colour(words[i], memo)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(words))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == single


def test_multi_colour_separation():
    green = Word(events=(Event(CUP, 1, ">", GREEN), Event(CAP, 1, "<")))
    red = Word(events=(Event(CUP, 1, ">", RED), Event(CAP, 1, "<")))
    both = D.combine(green, red)
    assert E.eval_multi_colour(both, 2) == S.delta(1, 2) * S.delta(2, 2)
    two_green = D.combine(green, green)
    assert E.eval_multi_colour(two_green, 2) == S.delta(1, 2) ** 2
    colour_zero = Word(events=(Event(CUP, 1, ">", 0), Event(CAP, 1, "<")))
    with pytest.raises(E.EvalError):
        E.eval_multi_colour(colour_zero, 2)


def test_mixed_crossings_are_transparent():
    # green and red circles crossing each other twice, in a Hopf pattern
    w = Word(events=(
        Event(CUP, 1, ">", GREEN), Event(CUP, 3, ">", RED),
        Event(XING, 2, "o"), Event(XING, 2, "u"),
        Event(CAP, 3, "<"), Event(CAP, 1, "<")))
    ana = D.analyze(w)
    assert {c.colour for c in ana.components} == {GREEN, RED}
    assert E.eval_multi_colour(w, 2) == S.delta(1, 2) * S.delta(2, 2)


def _closures_of_three_or_more_components(rng, count):
    out = []
    while len(out) < count:
        n = rng.randint(3, 5)
        gens = [rng.choice([g for g in range(1 - n, n) if g])
                for _ in range(rng.randint(1, 8))]
        w = T.desugar_braid(n, gens, True)
        if len(D.analyze(w).components) >= 3:
            out.append(w)
    return out


def test_polynomial_resolver_matches_naive_across_loop_degrees():
    # leaves of different d-degree meet in one root polynomial, and their
    # terms can cancel only after the conversion to the canonical Scalar
    rng = random.Random(50)
    words = _closures_of_three_or_more_components(rng, 30)
    circle = T.parse_morse("cup 1 >\ncap 1 <")
    clockwise = T.parse_morse("cup 1 <\ncap 1 >")
    for knot in (T.desugar_braid(2, [1, 1, 1], True),
                 T.desugar_braid(3, [1, -2, 1, -2], True),
                 T.desugar_braid(3, [1, 2, 2, -1, 2], True)):
        for unknots in range(2, 5):
            union = knot
            for _ in range(unknots):
                loop = rng.choice((circle, clockwise))
                union = D.combine(union, loop) if rng.random() < 0.5 \
                    else D.combine(loop, union)
            words.append(union)
    for w in words:
        assert E.eval_one_colour(w) == E.naive_eval(w, rng), D.word_key(w)


def test_root_conversion_of_loop_monomials():
    for k in range(9):
        for j in (-2, 0, 3):
            want = S.monomial(1, 1, a=[j]) * S.delta(1, 1) ** k
            assert S.from_loop_polynomial({(0, j, k): 1}) == want
    assert S.from_loop_polynomial({}) == S.Scalar.zero(1)
    # (q - q^-1) * d - (a - a^-1) cancels across d-degrees
    assert S.from_loop_polynomial({(1, 0, 1): 1, (-1, 0, 1): -1,
                                   (0, 1, 0): -1, (0, -1, 0): 1}).is_zero()


def test_root_value_is_cached_in_the_memo():
    w = T.desugar_braid(3, [1, 1, -2, 1, 2, 2], True)
    memo = {}
    first = E.eval_one_colour(w, memo)
    size = len(memo)
    second = E.eval_one_colour(w, memo)
    assert second == first == E.eval_one_colour(w) and second is first
    assert len(memo) == size


def test_resolver_does_no_per_node_scalar_work(monkeypatch):
    # a machine-independent guard: a resolver doing Scalar products or sums
    # at each node makes the count grow with n
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, fn=getattr(S.Scalar, name)):
            calls.append(fn)
            return fn(self, other)
        monkeypatch.setattr(S.Scalar, name, counted)
    counts = {}
    for n in (36, 72):
        calls.clear()
        E.eval_one_colour(T.desugar_braid(2, [1] * n, True), {})
        counts[n] = len(calls)
    assert counts[36] == counts[72] <= 2
