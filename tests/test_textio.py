import json
import random

import pytest

from skeinlab import diagrams as D
from skeinlab import scalars as S
from skeinlab import textio as T
from skeinlab.diagrams import Word, GREEN, RED

import isotopy
from conftest import random_word


def test_parse_ccw_unknot():
    w = T.parse_morse("surface plane\ncup 1 > \ncap 1 <")
    assert isotopy.rotations(w) == [1]


def test_parse_braid_trefoil():
    w = T.parse_morse("surface plane\nbraid 2: 1 1 1 ; close")
    assert isotopy.writhe(w) == 3
    assert len(D.analyze(w).components) == 1


def test_parse_cap_on_empty_is_semantic_error():
    with pytest.raises(T.SemanticError) as err:
        T.parse_morse("cap 1 <")
    assert "cap" in str(err.value) and err.value.line == 1


def test_error_classes_are_distinguished():
    with pytest.raises(T.LexicalError):
        T.parse_morse("cup x >")
    with pytest.raises(T.GrammarError):
        T.parse_morse("cup 1 %")
    with pytest.raises(T.GrammarError):
        T.parse_morse("frobnicate 1")
    with pytest.raises(T.SemanticError):
        T.parse_morse("cup 1 >\ncup 1 >\ncap 2 >")
    # all share the diagnostic base class, none escape as bare exceptions
    for text in ("cup x >", "cup 1 %", "cap 1 <"):
        with pytest.raises(T.DiagnosticError):
            T.parse_morse(text)


def test_braid_examples():
    unknot = T.desugar_braid(1, [], True)
    assert isotopy.rotations(unknot) == [1]
    kink = T.desugar_braid(2, [1], True)
    assert isotopy.writhe(kink) == 1
    hopf = T.desugar_braid(2, [1, 1], True)
    assert isotopy.writhe(hopf) == 2
    assert len(D.analyze(hopf).components) == 2
    with pytest.raises(T.SemanticError):
        T.desugar_braid(2, [2], True)
    with pytest.raises(T.SemanticError):
        T.desugar_braid(0, [], True)


def test_braid_open_is_annulus_word():
    w = T.parse_morse("surface annulus\nframing blackboard\nbraid 2: 1 1")
    assert w.surface == D.ANNULUS
    assert w.profile == ((D.UP, GREEN), (D.UP, GREEN))
    assert isotopy.windings(w) == [1, 1]
    # an odd braid word glues into a single doubly winding component
    odd = T.parse_morse("surface annulus\nframing blackboard\nbraid 2: 1")
    assert isotopy.windings(odd) == [2]


def test_headers_and_colours():
    w = T.parse_morse("surface annulus\nframing radial\nprofile ^g vr\n"
                      "x 1 o\nx 1 u")
    assert w.framing == D.RADIAL
    assert w.profile == ((D.UP, GREEN), (D.DOWN, RED))
    # the framing rule, for every input
    core = "surface annulus\nframing radial\nprofile ^g\n"
    assert T.parse_morse(core).framing == D.RADIAL
    # a given framing replaces the declared one
    assert T.parse_morse(core, D.BLACKBOARD) == Word(D.ANNULUS, D.BLACKBOARD,
                                                     ((D.UP, GREEN),), ())
    bare = "surface annulus\nprofile ^g\n"
    assert T.parse_morse(bare, D.RADIAL) == T.parse_morse(core)
    with pytest.raises(T.SemanticError, match="^annulus input carries no framing header"):
        T.parse_morse(bare)
    # the same holds for an open braid
    with pytest.raises(T.SemanticError, match="no framing header"):
        T.parse_morse("surface annulus\nbraid 2: 1")
    braid = T.parse_morse("surface annulus\nbraid 2: 1", D.RADIAL)
    assert braid.framing == D.RADIAL and braid.profile == ((D.UP, GREEN),) * 2
    # a plane word is blackboard unless told otherwise, and never radial
    assert T.parse_morse("cup 1 >\ncap 1 <").framing == D.BLACKBOARD
    with pytest.raises(T.SemanticError, match="radial framing is only legal"):
        T.parse_morse("cup 1 >\ncap 1 <", D.RADIAL)


def test_coloured_cup_token():
    w = T.parse_morse("cup 1 > r\ncap 1 <")
    assert w.events[0].colour == RED


def test_round_trip_random_words():
    rng = random.Random(31)
    for _ in range(40):
        w = random_word(rng)
        assert T.parse_morse(T.render_morse(w)) == w


def test_round_trip_coloured_and_annulus():
    w = T.parse_morse("surface annulus\nframing radial\nprofile ^g ^r\n"
                      "cup 1 > v\ncap 1 <")
    assert T.parse_morse(T.render_morse(w)) == w


def test_scalar_render_json_round_trip():
    d = S.scalar_coproduct(S.delta(1, 1))
    data = json.loads(T.render(d, "json"))
    assert isotopy.from_json(data) == d
    assert data["den_pow"] == 1


def test_render_rejects_unknown():
    for value in (object(), Word()):
        with pytest.raises(TypeError):
            T.render(value)
    with pytest.raises(ValueError):
        T.render(Word(), "yaml")


def test_comments_and_blanks_ignored():
    w = T.parse_morse("# a circle\n\nsurface plane\ncup 1 >  # birth\ncap 1 <\n")
    assert len(w.events) == 2
