from __future__ import annotations

import random

import pytest

from skeinlab import corpus
from skeinlab.diagrams import (CAP, CUP, DOWN, Event, UP, Word, XING, analyze)


def random_braid_closure(rng: random.Random, max_strands=4, max_crossings=8) -> Word:
    from skeinlab.textio import desugar_braid
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_crossings)
    gens = [rng.choice([g for g in range(-(n - 1), n) if g]) for _ in range(length)]
    return desugar_braid(n, gens, True)


def random_word(rng: random.Random, max_events=14, max_crossings=6) -> Word:
    """A random valid closed plane word with arbitrary strand orientations."""
    events, profile, ncross = [], [], 0
    while True:
        width = len(profile)
        choices = []
        if len(events) < max_events - width // 2:
            choices += ["cup"] * 2
        if width >= 2:
            for p in range(1, width):
                if (profile[p - 1], profile[p]) in ((UP, DOWN), (DOWN, UP)):
                    choices.append(("cap", p))
                if ncross < max_crossings:
                    choices.append(("x", p))
        if width == 0 and events:
            break
        if not choices:
            break
        ch = rng.choice(choices)
        if ch == "cup":
            p = rng.randint(1, width + 1)
            tag = rng.choice("><")
            events.append(Event(CUP, p, tag))
            profile[p - 1:p - 1] = list({"<": (UP, DOWN), ">": (DOWN, UP)}[tag])
        elif ch[0] == "cap":
            p = ch[1]
            tag = ">" if (profile[p - 1], profile[p]) == (UP, DOWN) else "<"
            events.append(Event(CAP, p, tag))
            del profile[p - 1:p + 1]
        else:
            p = ch[1]
            events.append(Event(XING, p, rng.choice("ou")))
            profile[p - 1], profile[p] = profile[p], profile[p - 1]
            ncross += 1
    guard = 0
    while profile and guard < 400:
        guard += 1
        for p in range(1, len(profile)):
            pair = (profile[p - 1], profile[p])
            if pair in ((UP, DOWN), (DOWN, UP)):
                events.append(Event(CAP, p, ">" if pair == (UP, DOWN) else "<"))
                del profile[p - 1:p + 1]
                break
        else:
            p = rng.randint(1, len(profile) - 1)
            events.append(Event(XING, p, rng.choice("ou")))
            profile[p - 1], profile[p] = profile[p], profile[p - 1]
    word = Word(events=tuple(events))
    analyze(word)
    return word


@pytest.fixture(scope="session")
def builtin():
    return dict(corpus.load_builtin())


@pytest.fixture(scope="session")
def plane_corpus():
    return [(n, w) for n, w in corpus.load_builtin() if w.surface == "plane"]


@pytest.fixture(scope="session")
def shared_memo():
    return {}
