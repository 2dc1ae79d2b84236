"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Run `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
import time
from itertools import product

from skeinlab import coproduct as C
from skeinlab import corpus as CORPUS
from skeinlab import diagrams as D
from skeinlab import engine as E
from skeinlab import jaeger as J
from skeinlab import scalars as S
from skeinlab.diagrams import ANNULUS, BLACKBOARD, RADIAL, UP, GREEN, Word

import isotopy
from conftest import random_braid_closure, random_word
from test_scalars import rand_scalar

JAEGER_NAMES = ("unknot-ccw", "unknot-cw", "kink-positive", "kink-negative",
                "hopf", "trefoil-right", "trefoil-left", "figure-eight")


def _report(num, text, elapsed=None):
    stamp = "" if elapsed is None else f"  [{elapsed:.3f}s]"
    print(f"PASS criterion {num}: {text}{stamp}")


def test_criterion_01_defining_relations():
    memo_free_times = []
    cases = [
        (isotopy.builtin_word("unknot-ccw"), S.delta(1, 1)),
        (isotopy.builtin_word("kink-positive"), S.a_power(1, 1, 1) * S.delta(1, 1)),
        (isotopy.builtin_word("unlink-2"), S.delta(1, 1) ** 2),
    ]
    for word, want in cases:
        E.eval_one_colour(word)  # warm the code paths
        best = float("inf")
        for _ in range(10):
            t0 = time.perf_counter()
            got = E.eval_one_colour(word)
            best = min(best, time.perf_counter() - t0)
        assert got == want
        assert best < 0.001, f"evaluation took {best * 1e3:.3f} ms"
        memo_free_times.append(best)
    _report(1, "defining relations exact, each under 1 ms "
               f"(worst {max(memo_free_times) * 1e3:.2f} ms)")


def test_criterion_02_scalar_coproduct():
    a = S.a_power(1, 1, 1)
    assert S.scalar_coproduct(a) == S.a_power(1, 1, 2) * S.a_power(2, 1, 2)
    d = S.delta(1, 1)
    assert S.scalar_coproduct(d) == (S.delta(1, 2) * S.a_power(2, 1, 2)
                                     + S.a_power(1, -1, 2) * S.delta(2, 2))
    rng = random.Random(101)
    for _ in range(100):
        x = rand_scalar(rng, 1)
        Dx = S.scalar_coproduct(x)
        assert S.coproduct_slot(Dx, 1) == S.coproduct_slot(Dx, 2)
    _report(2, "ring coproduct values and coassociativity on 100 random elements")


def test_criterion_03_jaeger_identity():
    t0 = time.perf_counter()
    memo = {}
    grid = [(n1, n2) for n1, n2 in product((-2, -1, 0, 1, 2), repeat=2)]
    for name in JAEGER_NAMES:
        w = isotopy.builtin_word(name)
        lhs = J.state_sum(w, 2, memo)
        rhs = S.scalar_coproduct(E.eval_one_colour(w, memo))
        assert lhs == rhs, name
        for n1, n2 in grid:
            assert S.specialize(lhs, [n1, n2]) == S.specialize(rhs, [n1, n2]), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, "composition identity, symbolic and on the 25-point grid", elapsed)


def test_criterion_04_path_agreement():
    memo = {}
    for name in JAEGER_NAMES:
        w = isotopy.builtin_word(name)
        assert (C.coproduct_diagram(w).evaluate(memo)
                == J.state_sum(w, 2, memo)), name
    _report(4, "box rewriting agrees with the state sum on the corpus")


def test_criterion_05_coassociativity():
    t0 = time.perf_counter()
    memo = {}
    for name in JAEGER_NAMES + ("unlink-2",):
        w = isotopy.builtin_word(name)
        s3 = J.state_sum(w, 3, memo)
        left = C.coproduct_iterated(w, 3, "left").evaluate(memo)
        right = C.coproduct_iterated(w, 3, "right").evaluate(memo)
        assert s3 == left == right, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, "three-label sum equals both iterated coproducts", elapsed)


def test_criterion_06_counit():
    memo = {}
    for name in JAEGER_NAMES + ("unlink-2",):
        w = isotopy.builtin_word(name)
        h = E.eval_one_colour(w, memo)
        element = C.coproduct_diagram(w)
        assert C.apply_counit(element, 2).evaluate(memo) == h, name
        assert C.apply_counit(element, 1).evaluate(memo) == h, name
    _report(6, "both one-sided counits reproduce the invariant")


def test_criterion_07_framing_remark():
    core_r = Word(ANNULUS, RADIAL, ((UP, GREEN),), ())
    got = C.coproduct_diagram(core_r)
    empty_r = Word(ANNULUS, RADIAL)
    assert got.terms == {
        (core_r, empty_r): S.Scalar.one(2),
        (empty_r, core_r): S.Scalar.one(2),
    }
    core_b = Word(ANNULUS, BLACKBOARD, ((UP, GREEN),), ())
    got_b = C.coproduct_diagram(core_b)
    empty_b = Word(ANNULUS, BLACKBOARD)
    assert got_b.terms == {
        (core_b, empty_b): S.a_power(2, 1, 2),
        (empty_b, core_b): S.a_power(1, -1, 2),
    }
    _report(7, "both framed core computations reproduced term by term")


def test_criterion_08_multiplicativity():
    memo = {}
    picks = ("unknot-ccw", "kink-positive", "hopf", "trefoil-right")
    for n1 in picks:
        for n2 in picks:
            w1, w2 = isotopy.builtin_word(n1), isotopy.builtin_word(n2)
            lhs = C.coproduct_diagram(D.combine(w1, w2)).evaluate(memo)
            rhs = (C.coproduct_diagram(w1).evaluate(memo)
                   * C.coproduct_diagram(w2).evaluate(memo))
            assert lhs == rhs, (n1, n2)
    for framing in (RADIAL, BLACKBOARD):
        core = Word(ANNULUS, framing, ((UP, GREEN),), ())
        base = C.coproduct_diagram(core)
        for k in (2, 3):
            lhs = C.coproduct_diagram(D.power(core, k))
            rhs = base
            for _ in range(k - 1):
                rhs = rhs * base
            assert (C.annulus_eval_family(lhs, 2, memo)
                    == C.annulus_eval_family(rhs, 2, memo)), (framing, k)
    _report(8, "plane unions exactly; annulus core powers through the "
               "eval family at levels up to 2")


def test_criterion_09_collapse_and_symmetry_laws():
    t0 = time.perf_counter()
    rng = random.Random(109)
    memo = {}
    for i in range(200):
        w = random_braid_closure(rng, max_strands=4, max_crossings=8)
        v = E.eval_one_colour(w, memo)
        assert S.specialize(v, [1]) == isotopy.q_power(isotopy.writhe(w), 0)
        assert E.eval_one_colour(isotopy.mirror(w), memo) == isotopy.bar(v)
        assert E.eval_one_colour(isotopy.reverse(w), memo) == v
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(9, "t=1 collapse, mirror and reversal laws on 200 fuzzed braids",
            elapsed)


def test_criterion_10_oracle_equivalence():
    rng = random.Random(110)
    for name, w in CORPUS.load_builtin():
        if w.surface != D.PLANE:
            continue
        assert len(D.analyze(w).crossings) <= 8
        assert isotopy.naive_eval(w, rng) == E.eval_one_colour(w), name
    _report(10, "randomized full-tree resolver matches the memoized engine")


def test_criterion_11_isotopy_invariance():
    rng = random.Random(111)
    memo = {}
    checked = 0
    while checked < 50:
        w = random_word(rng, max_events=10, max_crossings=4)
        ev = E.eval_one_colour(w, memo)
        dv = C.coproduct_diagram(w).evaluate(memo)
        at = rng.randint(0, len(w.events))
        prof = isotopy.profiles(w)[at]
        if not prof:
            continue
        pos = rng.randint(1, len(prof))
        variants = []
        z = isotopy.insert_zigzag(w, at, pos, rng.choice(("left", "right")))
        if z is not None:
            variants.append(z)
        if len(prof) >= 2:
            r2 = isotopy.insert_r2(w, at, rng.randint(1, len(prof) - 1), rng.choice("ou"))
            if r2 is not None:
                variants.append(r2)
        if len(prof) >= 3:
            pair = isotopy.insert_r3_pair(w, at, rng.randint(1, len(prof) - 2),
                                          rng.choice("ou"))
            if pair is not None:
                wa, wb = pair
                assert E.eval_one_colour(wa, memo) == E.eval_one_colour(wb, memo)
                assert (C.coproduct_diagram(wa).evaluate(memo)
                        == C.coproduct_diagram(wb).evaluate(memo))
        i = rng.randint(0, max(0, len(w.events) - 2))
        cmt = isotopy.commute_events(w, i)
        if cmt is not None:
            variants.append(cmt)
        sign = rng.choice((1, -1))
        k1 = isotopy.add_kink(w, at, pos, 1, sign)
        k2 = isotopy.add_kink(w, at, pos, -1, sign)
        if k1 is not None and k2 is not None:
            assert E.eval_one_colour(k1, memo) == E.eval_one_colour(k2, memo)
            assert (C.coproduct_diagram(k1).evaluate(memo)
                    == C.coproduct_diagram(k2).evaluate(memo))
        for variant in variants:
            assert E.eval_one_colour(variant, memo) == ev
            assert C.coproduct_diagram(variant).evaluate(memo) == dv
        checked += 1
    _report(11, "moves leave the invariant and the evaluated coproduct fixed "
                "on 50 fuzzed cases")
