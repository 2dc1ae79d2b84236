import json
import math
import random
from collections import Counter
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from skeinlab import cli
from skeinlab import coproduct as C
from skeinlab import corpus
from skeinlab import diagrams as D
from skeinlab import engine as E
from skeinlab import jaeger as J
from skeinlab import scalars as S
from skeinlab import textio as T
from skeinlab.diagrams import (ANNULUS, BLACKBOARD, DOWN, Event, GREEN, PLANE,
                               RADIAL, UP, Word, CUP, CAP, XING)

import isotopy
from conftest import random_word

REGRESSIONS = Path(__file__).parent / "regressions"


def ring_coproduct_of(w, memo):
    return S.scalar_coproduct(E.eval_one_colour(w, memo))


# -- calibration ------------------------------------------------------------
#
# Four conventions are not readable from the source figures: how the state
# sum's rotation correction pairs with the tensor slots, which side of a
# cutting smoothing carries the larger label, the sign of the cup/cap
# dressing exponents, and the winding sign on the blackboard annulus. The
# program fixes each as a constant in one private function; the search
# below substitutes every alternative and shows the shipped point is the
# only one that passes the anchors.

# two-label rotation pairings; None keeps the shipped a_1^{-r_2} a_2^{r_1}
PAIRINGS = {
    "calibrated": None,
    "printed": lambda rots, n: S.monomial(n, 1, a=[-rots[0], rots[1]]),
    "calibrated_inv": lambda rots, n: S.monomial(n, 1, a=[rots[1], -rots[0]]),
    "printed_inv": lambda rots, n: S.monomial(n, 1, a=[rots[0], -rots[1]]),
}
# (pairing, larger label enters under at a cut, dressing sign, winding sign)
SHIPPED = ("calibrated", True, 1, 1)
POINTS = list(product(PAIRINGS, (True, False), (1, -1), (1, -1)))

UNKNOT = Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, "<")))
ANCHORS = {"unknot": UNKNOT, "kink": T.desugar_braid(2, [1], True),
           "hopf": T.desugar_braid(2, [1, 1], True)}
# one-crossing curls with a sideways crossing: upward-only diagrams are
# blind to the relabelling symmetry between cutting side and pairing
ANCHORS.update({f"curl {cup}{x}": Word(events=(Event(CUP, 1, cup), Event(XING, 1, x),
                                               Event(CAP, 1, cup)))
                for cup in "><" for x in "ou"})
CURLS = {name for name in ANCHORS if name.startswith("curl")}


@contextmanager
def conventions_at(pairing, cut_under_in, dressing, winding):
    """Run the program at one point of the convention space by replacing
    the private functions that hold the conventions."""
    with pytest.MonkeyPatch.context() as mp:
        if PAIRINGS[pairing] is not None:
            mp.setattr(J, "_rotation_correction", PAIRINGS[pairing])
        if not cut_under_in:
            # reversing the two labels (c -> 3 - c) keeps every equality and
            # swaps which side of a cut counts as larger
            eligible, admissible, cuts = (C._cut_eligible, J.enumerate_admissible,
                                          J.cutting_vertices)

            def reversed_admissible(*args, **kwargs):
                for f in admissible(*args, **kwargs):
                    yield {e: 3 - v for e, v in f.items()}
            mp.setattr(C, "_cut_eligible", lambda cl, cr, tag: eligible(cr, cl, tag))
            mp.setattr(J, "enumerate_admissible", reversed_admissible)
            mp.setattr(J, "cutting_vertices",
                       lambda roles, f: cuts(roles, {e: 3 - v for e, v in f.items()}))
        if dressing != 1:
            dress = C._dressing
            mp.setattr(C, "_dressing",
                       lambda *a: tuple(dressing * x for x in dress(*a)))
        if dressing * winding != 1:
            wind = C._winding
            mp.setattr(C, "_winding",
                       lambda *a: tuple(dressing * winding * x for x in wind(*a)))
        yield


def broken_anchors() -> set:
    """The anchors the program, as currently patched, gets wrong."""
    memo = {}
    broken = set()
    for name, w in ANCHORS.items():
        ring = S.scalar_coproduct(E.eval_one_colour(w, memo))
        if J.state_sum(w, 2, memo) != ring:
            broken.add(f"state sum {name}")
        if C.coproduct_diagram(w).evaluate(memo) != ring:
            broken.add(f"boxes {name}")
    report = C.verify("framing-remark", [], memo)
    broken.update(line.split("  ")[2] for line in report.lines
                  if line.startswith("FAIL"))
    want = C.CoproductElement(2, PLANE)
    want.add((UNKNOT, Word()), S.a_power(2, 1, 2))
    want.add((Word(), UNKNOT), S.a_power(1, -1, 2))
    if C.coproduct_diagram(UNKNOT) != want:
        broken.add("term-level unknot")
    return broken


def test_calibration_unique_survivor():
    assert len(POINTS) == 32
    survivors = []
    for point in POINTS:
        with conventions_at(*point):
            if not broken_anchors():
                survivors.append(point)
    assert survivors == [SHIPPED]


def test_each_convention_flip_breaks_its_anchors():
    def on(path, names):
        return {f"{path} {name}" for name in names}
    flips = {
        ("printed", True, 1, 1): on("state sum", ANCHORS),
        ("calibrated_inv", True, 1, 1): on("state sum", CURLS),
        ("printed_inv", True, 1, 1): on("state sum", ANCHORS.keys() - CURLS),
        ("calibrated", False, 1, 1): on("state sum", CURLS) | on("boxes", CURLS),
        ("calibrated", True, -1, 1): (on("boxes", CURLS)
                                      | {"core blackboard", "term-level unknot"}),
        ("calibrated", True, 1, -1): {"core blackboard"},
    }
    for point, want in flips.items():
        with conventions_at(*point):
            assert broken_anchors() == want, point


def test_unknot_term_level():
    unknot = Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, "<")))
    element = C.coproduct_diagram(unknot)
    empty = Word()
    assert element.terms == {
        (unknot, empty): S.a_power(2, 1, 2),
        (empty, unknot): S.a_power(1, -1, 2),
    }
    assert element.evaluate() == S.scalar_coproduct(S.delta(1, 1))


def test_framing_remark_term_level():
    report = C.verify("framing-remark", [])
    assert report.failures == 0, report.text()
    core_r = Word(ANNULUS, RADIAL, ((UP, GREEN),), ())
    got = C.coproduct_diagram(core_r)
    assert all(S.pretty(c) == "1" for c in got.terms.values())
    core_b = Word(ANNULUS, BLACKBOARD, ((UP, GREEN),), ())
    got_b = C.coproduct_diagram(core_b)
    coeffs = sorted(S.pretty(c) for c in got_b.terms.values())
    assert coeffs == sorted([S.pretty(S.a_power(2, 1, 2)),
                             S.pretty(S.a_power(1, -1, 2))])


def _circles(orients):
    """Split circles side by side: '>' counterclockwise, '<' clockwise."""
    events = []
    for o in orients:
        events += [Event(CUP, 1, o), Event(CAP, 1, "<" if o == ">" else ">")]
    return Word(events=tuple(events))


def test_ccw_unlink_terms_are_binomial():
    # each ccw circle goes to slot 1 with a_2 or to slot 2 with a_1^-1
    for k in range(1, 9):
        element = C.coproduct_diagram(_circles(">" * k))
        assert element.terms == {
            (_circles(">" * j), _circles(">" * (k - j))):
                S.monomial(2, math.comb(k, j), a=[-(k - j), j])
            for j in range(k + 1)}, k


def test_unlink_value_is_the_power_of_the_circle_coproduct():
    circle = (S.delta(1, 2) * S.a_power(2, 1, 2)
              + S.delta(2, 2) * S.a_power(1, -1, 2))
    memo = {}
    for k in range(1, 7):
        for orients in (">" * k, "<" * k, ("><" * k)[:k]):
            value = C.coproduct_diagram(_circles(orients)).evaluate(memo)
            assert value == circle ** k, orients


def test_two_strand_annulus_profile_terms():
    for framing, coeffs in ((RADIAL, ([0, 0], [0, 0], [0, 0])),
                            (BLACKBOARD, ([0, 2], [-1, 1], [-2, 0]))):
        def strands(n):
            return Word(ANNULUS, framing, ((UP, GREEN),) * n, ())
        element = C.coproduct_diagram(strands(2))
        assert element.terms == {
            (strands(2), strands(0)): S.monomial(2, 1, a=coeffs[0]),
            (strands(1), strands(1)): S.monomial(2, 2, a=coeffs[1]),
            (strands(0), strands(2)): S.monomial(2, 1, a=coeffs[2]),
        }, framing


def test_box_walk_does_no_per_leaf_scalar_work(monkeypatch):
    # a machine-independent guard: one Scalar per output term, however
    # many of the 2^k leaves land on it
    made = []
    init = S.Scalar.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(S.Scalar, "__init__", counted)
    for orients in (">" * 8, "><" * 4):
        made.clear()
        element = C.coproduct_diagram(_circles(orients))
        assert len(made) == len(element.terms), orients


def test_box_walk_slot_words_are_parsed_words():
    # The walk builds its slot events itself, their colour left at the
    # GREEN default. `CoproductElement.add` merges terms, and `verify
    # mult` compares whole elements, on word equality, so a walk-built
    # word must be the value the parser makes from its own text.
    rng = random.Random(5)
    words = [w for _, w in corpus.load_builtin()] + [random_word(rng) for _ in range(20)]
    checked = 0
    for w in words:
        for slot_words in C.coproduct_diagram(w).terms:
            for sw in slot_words:
                parsed = T.parse_morse(T.render_morse(sw))
                assert parsed == sw and hash(parsed) == hash(sw), T.render_morse(sw)
                checked += 1
    assert checked == 1186


def test_path_agreement_on_corpus(plane_corpus, shared_memo):
    for name, w in plane_corpus:
        lhs = C.coproduct_diagram(w).evaluate(shared_memo)
        mid = J.state_sum(w, 2, shared_memo)
        rhs = ring_coproduct_of(w, shared_memo)
        assert lhs == mid == rhs, name


def test_path_agreement_fuzzed():
    rng = random.Random(61)
    for _ in range(15):
        w = random_word(rng)
        memo = {}
        assert C.coproduct_diagram(w).evaluate(memo) == ring_coproduct_of(w, memo)


def test_iterated_coproduct_three_slots(plane_corpus, shared_memo):
    for name, w in plane_corpus:
        left = C.coproduct_iterated(w, 3, "left").evaluate(shared_memo)
        right = C.coproduct_iterated(w, 3, "right").evaluate(shared_memo)
        s3 = J.state_sum(w, 3, shared_memo)
        assert left == right == s3, name


def test_iterated_unknot_value():
    w = Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, "<")))
    want = (S.delta(1, 3) * S.a_power(2, 1, 3) * S.a_power(3, 1, 3)
            + S.a_power(1, -1, 3) * S.delta(2, 3) * S.a_power(3, 1, 3)
            + S.a_power(1, -1, 3) * S.a_power(2, -1, 3) * S.delta(3, 3))
    assert C.coproduct_iterated(w, 3).evaluate() == want
    with pytest.raises(C.CoproductError):
        C.coproduct_iterated(w, 1)


def test_two_slot_iteration_is_the_coproduct():
    w = T.desugar_braid(2, [1, 1], True)
    assert C.coproduct_iterated(w, 2).terms == C.coproduct_diagram(w).terms


def test_counit_laws(plane_corpus, shared_memo):
    for name, w in plane_corpus:
        h = E.eval_one_colour(w, shared_memo)
        element = C.coproduct_diagram(w)
        assert C.apply_counit(element, 2).evaluate(shared_memo) == h, name
        assert C.apply_counit(element, 1).evaluate(shared_memo) == h, name


def test_plane_multiplicativity():
    rng = random.Random(62)
    for _ in range(8):
        w1 = random_word(rng, max_events=8, max_crossings=3)
        w2 = random_word(rng, max_events=8, max_crossings=3)
        memo = {}
        lhs = C.coproduct_diagram(D.combine(w1, w2)).evaluate(memo)
        rhs = (C.coproduct_diagram(w1).evaluate(memo)
               * C.coproduct_diagram(w2).evaluate(memo))
        assert lhs == rhs


def test_annulus_multiplicativity_eval_family():
    memo = {}
    for framing in (RADIAL, BLACKBOARD):
        core = Word(ANNULUS, framing, ((UP, GREEN),), ())
        base = C.coproduct_diagram(core)
        for k in (2, 3):
            power = C.coproduct_diagram(D.power(core, k))
            prod = base
            for _ in range(k - 1):
                prod = prod * base
            assert (C.annulus_eval_family(power, 2, memo)
                    == C.annulus_eval_family(prod, 2, memo)), (framing, k)


def test_eval_family_base_values():
    core = Word(ANNULUS, BLACKBOARD, ((UP, GREEN),), ())
    element = C.coproduct_diagram(core)
    fam = C.annulus_eval_family(element, 0)
    assert fam[(0, 0)] == element_eval_via_closure(element, (0, 0))
    empty = C.CoproductElement(2, ANNULUS)
    empty.add((Word(ANNULUS, BLACKBOARD), Word(ANNULUS, BLACKBOARD)),
              S.Scalar.one(2))
    fam0 = C.annulus_eval_family(empty, 1)
    assert fam0[(0, 0)] == S.Scalar.one(2)
    # each test circle through the empty element contributes one loop value
    assert fam0[(1, 0)] == S.delta(1, 2)
    assert fam0[(1, 1)] == S.delta(1, 2) * S.delta(2, 2)


def element_eval_via_closure(element, counts):
    """Entry `counts` of the eval family, computed apart from it: thread
    counts[i - 1] meridians through each slot-i word, close it into the
    plane and evaluate it on a memo of its own."""
    memo = {}
    total = S.Scalar.zero(element.slots)
    for words, coeff in element.terms.items():
        value = coeff
        for slot, (w, j) in enumerate(zip(words, counts), start=1):
            for _ in range(j):
                w = D.thread_meridian(w)
            h = E.eval_one_colour(D.planar_closure(w), memo)
            value = value * S.rename_slots(h, (slot,), element.slots)
        total = total + value
    return total


def test_eval_family_entries_match_closures():
    words = [w for _, w in corpus.load_path(str(REGRESSIONS / "annulus-multistrand"))
             if w.surface == ANNULUS]
    assert len(words) == 2
    words += list(_seeded_annulus_words(67, 3))
    memo = {}
    for w in words:
        element = C.coproduct_diagram(w)
        fam = C.annulus_eval_family(element, 2, memo)
        assert len(fam) == 9
        for counts, value in fam.items():
            assert value == element_eval_via_closure(element, counts), (w, counts)


def test_annulus_blackboard_agrees_with_planar_closure():
    # closing each slot word into the plane must reproduce the plane
    # coproduct of the closed diagram, blackboard framing throughout
    rng = random.Random(64)
    for _ in range(12):
        n = rng.randint(2, 3)
        gens = [rng.choice([g for g in range(-(n - 1), n) if g])
                for _ in range(rng.randint(0, 5))]
        w = T.desugar_braid(n, gens, False)
        memo = {}
        fam = C.annulus_eval_family(C.coproduct_diagram(w), 0, memo)
        want = S.scalar_coproduct(
            E.eval_one_colour(D.planar_closure(w), memo))
        assert fam[(0, 0)] == want


def test_isotopy_invariance_of_evaluated_coproduct():
    rng = random.Random(63)
    checked = 0
    while checked < 10:
        w = random_word(rng, max_events=10, max_crossings=4)
        memo = {}
        v = C.coproduct_diagram(w).evaluate(memo)
        at = rng.randint(0, len(w.events))
        prof = isotopy.profiles(w)[at]
        if not prof:
            continue
        z = isotopy.insert_zigzag(w, at, rng.randint(1, len(prof)))
        if z is not None:
            assert C.coproduct_diagram(z).evaluate(memo) == v
        if len(prof) >= 2:
            r2 = isotopy.insert_r2(w, at, rng.randint(1, len(prof) - 1))
            if r2 is not None:
                assert C.coproduct_diagram(r2).evaluate(memo) == v
        checked += 1


def test_element_algebra():
    unknot = Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, "<")))
    el = C.coproduct_diagram(unknot)
    words, coeff = next(iter(el.terms.items()))
    doubled = C.CoproductElement(2, PLANE)
    doubled.add(words, coeff)
    doubled.add(words, coeff)
    assert doubled.terms == {words: coeff * 2}
    doubled.add(words, coeff * S.integer(-2, 2))
    assert doubled.terms == {}
    with pytest.raises(S.ArityError):
        doubled.add(words, S.integer(1, 3))


def test_element_json_schema():
    unknot = Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, "<")))
    data = json.loads(C.coproduct_diagram(unknot).json_text())
    assert data["slots"] == 2
    assert len(data["terms"]) == 2
    for term in data["terms"]:
        assert set(term) == {"coeff", "diagrams"}
        assert len(term["diagrams"]) == 2
        assert term["coeff"]["arity"] == 2
        for text in term["diagrams"]:
            T.parse_morse(text)
    assert data["terms"] == sorted(data["terms"], key=lambda t: t["diagrams"])


# -- the JSON writer ----------------------------------------------------------


def reference_json(element) -> str:
    """An element's JSON as `json.dumps` writes its dict: the reference the
    template writer `CoproductElement.json_text` must match byte for byte."""
    rows = [{"coeff": S.to_json(coeff), "diagrams": [T.render_morse(w) for w in words]}
            for words, coeff in element.terms.items()]
    rows.sort(key=lambda r: r["diagrams"])
    return json.dumps({"slots": element.slots, "surface": element.surface,
                       "terms": rows}, indent=2, sort_keys=True)


def _writer_elements(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    import inputs
    words = [w for _, w in corpus.load_builtin()]
    words += [T.parse_morse(case.files["in.mw"]) for case in inputs.split_coproduct(12)
              if case.name != f"unlink-{inputs.LONG_UNLINK}-ccw"]
    for framing in (RADIAL, BLACKBOARD):
        for second in (UP, DOWN):
            words.append(Word(ANNULUS, framing, ((UP, GREEN), (second, GREEN)), ()))
    elements = [C.coproduct_diagram(w) for w in words]
    elements.append(C.CoproductElement(2, PLANE))
    elements.append(C.coproduct_iterated(T.desugar_braid(2, [1, -1, 1], False), 3))
    rich = C.CoproductElement(2, PLANE)
    unknot = T.parse_morse("cup 1 >\ncap 1 <")
    rich.add((unknot, unknot), S.Scalar(2, {S.pack((3, -1, 12)): -123, S.pack((0, 2, 0)): 45,
                                            S.pack((-11, 0, 0)): -1}, 2))
    assert rich.terms[unknot, unknot].den_pow > 0
    elements.append(rich)
    return elements


def test_json_writer_matches_json_dumps(monkeypatch):
    elements = _writer_elements(monkeypatch)
    assert len(elements) == 13 + 51 + 4 + 3
    for element in elements:
        assert element.json_text() == reference_json(element)
    assert '"terms": []' in C.CoproductElement(2, PLANE).json_text()


def test_scalar_json_matches_json_dumps(tmp_path, capsys):
    # arity 0 with no terms, arity 0 with "a": [], an arity-3 value, and
    # a negative multi-digit coefficient over a power of (q - q^-1)
    unlink = tmp_path / "unlink-2.mw"
    unlink.write_text(corpus.BUILTIN_SOURCES["unlink-2"], encoding="utf-8")
    trefoil = tmp_path / "trefoil.mw"
    trefoil.write_text(corpus.BUILTIN_SOURCES["trefoil-right"], encoding="utf-8")
    runs = {("eval", unlink, "--t", "0"): '"terms": []',
            ("eval", trefoil, "--t", "2"): '"a": []',
            ("iterate", trefoil, "--slots", "3"): '"arity": 3'}
    for (command, path, *rest), shape in runs.items():
        assert cli.main([command, str(path), *rest, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert shape in out, command
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    rng = random.Random(21)
    for _ in range(200):
        arity = rng.randint(0, 3)
        terms = {S.pack(rng.randint(-15, 15) for _ in range(arity + 1)):
                 rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(0, 5))
                 for _ in range(rng.randint(0, 4))}
        value = S.Scalar(arity, terms, rng.randint(0, 3))
        want = json.dumps(S.to_json(value), indent=2, sort_keys=True)
        assert T.render(value, "json") == want
        nested = json.dumps([{"coeff": S.to_json(value)}], indent=2, sort_keys=True)
        assert nested == f'[\n  {{\n    "coeff": {T.scalar_json(value, "    ")}\n  }}\n]'


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_emission_renders_each_distinct_slot_word_once(monkeypatch, tmp_path, capsys, fmt):
    path = tmp_path / "unlink-alt-6.mw"
    path.write_text("cup 1 >\ncap 1 <\ncup 1 <\ncap 1 >\n" * 3, encoding="utf-8")
    element = C.coproduct_diagram(T.parse_morse(path.read_text(encoding="utf-8")))
    distinct = {w for words in element.terms for w in words}
    rendered, keyed = Counter(), Counter()

    def counting(calls, fn):
        def counted(w):
            calls[w] += 1
            return fn(w)
        return counted
    monkeypatch.setattr(T, "render_morse", counting(rendered, T.render_morse))
    monkeypatch.setattr(D, "word_key", counting(keyed, D.word_key))
    assert cli.main(["coproduct", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert len(element.terms) * 2 > len(distinct)
    assert set(rendered) == distinct and set(rendered.values()) == {1}
    assert set(keyed) == (distinct if fmt == "pretty" else set())
    assert set(keyed.values()) <= {1}


def test_single_colour_required():
    mixed = Word(events=(Event(CUP, 1, ">", 1), Event(CAP, 1, "<"),
                         Event(CUP, 1, ">", 2), Event(CAP, 1, "<")))
    with pytest.raises(C.CoproductError):
        C.coproduct_diagram(mixed)


def test_apply_counit_bounds():
    el = C.coproduct_diagram(Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, "<"))))
    with pytest.raises(C.CoproductError):
        C.apply_counit(el, 3)


def test_verify_reports():
    words = [("unknot", Word(events=(Event(CUP, 1, ">"), Event(CAP, 1, "<"))))]
    report = C.verify("jaeger", words)
    assert report.failures == 0 and "pass" in report.text()
    with pytest.raises(C.CoproductError):
        C.verify("nonsense", words)


def test_verify_all_builds_each_box_coproduct_once(monkeypatch, capsys):
    # one memo serves every suite of `verify all`: each plane word's box
    # coproduct is built once, and the lines are those of each suite run
    # alone on a fresh memo
    entries = corpus.load_builtin()
    assert cli.main(["verify", "all"]) == 0
    shared = capsys.readouterr().out.splitlines()
    alone = []
    for identity in C.IDENTITIES:
        assert cli.main(["verify", identity]) == 0
        alone += capsys.readouterr().out.splitlines()[:-1]
    assert shared[:-1] == alone and len(alone) == int(shared[-1].split()[1])
    built = Counter()
    diagram = C.coproduct_diagram

    def counted(word):
        built[word] += 1
        return diagram(word)
    monkeypatch.setattr(C, "coproduct_diagram", counted)
    memo = {}
    for identity in C.IDENTITIES:
        C.verify(identity, entries, memo)
    plane = [w for _, w in entries if w.surface == PLANE]
    assert [built[w] for w in plane] == [1] * len(plane)
    assert set(built.values()) == {1}


def test_box_walk_refuses_words_past_its_exponent_bound():
    # each event moves one exponent of a leaf by at most 1, so the walk
    # refuses a word with more events and strands than EXP_MAX up front
    circles = (Event(CUP, 1, ">"), Event(CAP, 1, "<"))
    w = Word(events=circles * (S.EXP_MAX // 2 + 1))
    with pytest.raises(S.ExponentRangeError, match=f"{S.EXP_MAX + 1} events and 0 strands"):
        C.coproduct_diagram(w)


def _seeded_annulus_words(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        gens = [rng.choice([g for g in range(-(n - 1), n) if g])
                for _ in range(rng.randint(0, 4))] if n > 1 else []
        w = T.desugar_braid(n, gens, False)
        for framing in (RADIAL, BLACKBOARD):
            yield w._replace(framing=framing)


def test_annulus_power_coproduct_is_the_product_term_by_term():
    # stacking concatenates profiles and the box walk is local, so the walk
    # on w^k splits into k walks on w: `verify mult` rarely needs the family
    for w in _seeded_annulus_words(67, 10):
        base = C.coproduct_diagram(w)
        prod = base
        for k in (2, 3):
            prod = prod * base
            assert C.coproduct_diagram(D.power(w, k)) == prod, (w, k)


def test_eval_family_equates_isotopic_annulus_coproducts():
    # an R2 pair or a zigzag changes the formal sum of Δ(w) but not its
    # level-2 eval family; doubling every coefficient changes both
    memo = {}
    w = T.desugar_braid(2, [1], False)
    element = C.coproduct_diagram(w)
    family = C.annulus_eval_family(element, 2, memo)
    r2 = C.coproduct_diagram(isotopy.insert_r2(w, 0, 1))
    zigzag = C.coproduct_diagram(isotopy.insert_zigzag(w, 1, 2))
    for other in (r2, zigzag):
        assert other != element
        assert C.annulus_eval_family(other, 2, memo) == family
    doubled = C.CoproductElement(element.slots, element.surface)
    for words, coeff in element.terms.items():
        doubled.add(words, coeff * 2)
    assert C.annulus_eval_family(doubled, 2, memo) != family


def test_verify_mult_fails_annulus_powers_whose_formal_sums_differ(monkeypatch, capsys):
    # w^k with an R2 pair inserted is isotopic to w^k, so an eval family
    # would pass it; annulus `mult` compares formal sums only, and fails it
    power = D.power
    monkeypatch.setattr(C.diagrams, "power",
                        lambda w, k: isotopy.insert_r2(power(w, k), 0, 1))
    assert cli.main(["verify", "mult"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5:] == [
        f"FAIL  mult  annulus-core-{framing}^{k} ({framing})  [formal sums differ]"
        for framing in (BLACKBOARD, RADIAL) for k in (2, 3)
    ] + ["FAILED: 85 checks, 4 failures"]
