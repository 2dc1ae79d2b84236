"""Seeded inputs for the benchmark workloads.

Every input is generated here from the seed alone and handed to the
program as a diagram document in its command-line grammar. Nothing is
imported from skeinlab or from its tests, so a change to either cannot
shift the inputs. Each workload is one fixed call list (a round); the
benchmark repeats whole rounds, and every round is identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# braid-eval: the T(2,n) band is the same for every seed and dense (step
# 1, so neighbouring calls differ by about 10% in cost, less than the
# host's call-to-call noise). Both percentiles then sit inside it, on
# many calls of neighbouring sizes spread over the whole run rather than
# on the few samples of one input. The seeded closures are cheaper than
# its lower end and move the round total only a little; with six of
# them in a round of 25 the median falls near T(2,24) and the 90th
# percentile near T(2,34). The band stops at 36 so that a round takes
# about 2.5 s and a run makes a dozen or more; T(2,50) alone costs as
# much as the five band calls below it.
TORUS_BAND = tuple(range(18, 37))
CLOSURES_PER_STRANDS = 3
CLOSURE_LENGTH = 8

# split-coproduct: the box walk is exponential in the number of split
# circles, so the band stops at 12 (unlink-14 costs four times unlink-12).
UNLINK_BAND = tuple(range(2, 13))
UNION_UNKNOTS = tuple(range(0, 9))
# The long unlink that ends in RecursionError today; seed-independent.
LONG_UNLINK = 600

# verify-fuzz: small corpora, fixed in shape and random in content. The
# mult suite's pairwise unions double the word size, and its annulus
# powers cost 10-40 s on a two-strand open braid against 0.1 s on one
# strand, so the annulus entries are one-strand open braids. A five-event
# plane word with one crossing and a two-letter two-strand closure keep a
# call near 0.25 s, most of it the annulus entries. A round of 25
# distinct corpora takes about 6 s, so a run makes several rounds and
# stops close to its time.
CORPORA = 25
PLANE_WORDS = 1
PLANE_EVENTS = 5
PLANE_CROSSINGS = 1
CLOSURE_STRANDS = 2
VERIFY_CLOSURE_LENGTH = 2


@dataclass
class Case:
    """One call of a round: the command, its input documents and what
    the checks need to know about them."""
    name: str
    command: str                    # eval | coproduct | verify
    files: dict                     # file name -> document text
    expect: dict = field(default_factory=dict)


# -- documents -----------------------------------------------------------


def braid_doc(strands: int, gens, close: bool = True, framing: str = "") -> str:
    head = ""
    if not close:
        head = f"surface annulus\nframing {framing}\n"
    letters = " ".join(str(g) for g in gens)
    tail = " ; close" if close else ""
    return f"{head}braid {strands}: {letters}{tail}\n"


def circle_lines(orient: str) -> list:
    """A free circle at the left edge: '>' counterclockwise, '<' clockwise."""
    return [f"cup 1 {orient}", f"cap 1 {'<' if orient == '>' else '>'}"]


def alternating(first: str, k: int) -> str:
    """k circle orientations, alternating from `first`. The slot words of
    a split union are subsequences of this string, so the number of
    output terms depends on the pattern; alternating gives many terms,
    and the same number for either first orientation."""
    other = "<" if first == ">" else ">"
    return "".join(first if i % 2 == 0 else other for i in range(k))


def unlink_doc(orients: str) -> str:
    lines = ["surface plane"]
    for o in orients:
        lines += circle_lines(o)
    return "\n".join(lines) + "\n"


def knot_lines(strands: int, gens) -> list:
    """Morse events of a closed braid: nested cups, generators, caps."""
    lines = [f"cup {k} >" for k in range(1, strands + 1)]
    for g in gens:
        lines.append(f"x {strands + abs(g)} {'o' if g > 0 else 'u'}")
    lines += [f"cap {k} <" for k in range(strands, 0, -1)]
    return lines


def random_generators(rng: random.Random, strands: int, length: int) -> list:
    letters = [g for g in range(1 - strands, strands) if g]
    return [rng.choice(letters) for _ in range(length)]


def random_plane_lines(rng: random.Random, events: int, crossings: int) -> list:
    """A closed plane word with exactly `events` events, `crossings` of them
    crossings, cups of both turning directions and crossings between
    strands of any orientation. Drawn by rejection, so it depends on the
    generator state only."""
    for _ in range(10_000):
        lines, profile, made = [], [], 0
        while len(lines) < events:
            width = len(profile)
            room = events - len(lines) - width // 2
            moves = []
            if room >= 2:
                moves.append(("cup", 0))
            for p in range(1, width):
                if profile[p - 1] != profile[p]:
                    moves.append(("cap", p))
                if made < crossings and room >= 1:
                    moves.append(("x", p))
            if not moves:
                break
            kind, p = rng.choice(moves)
            if kind == "cup":
                p = rng.randint(1, width + 1)
                tag = rng.choice("><")
                lines.append(f"cup {p} {tag}")
                profile[p - 1:p - 1] = ["v", "^"] if tag == ">" else ["^", "v"]
            elif kind == "cap":
                tag = ">" if (profile[p - 1], profile[p]) == ("^", "v") else "<"
                lines.append(f"cap {p} {tag}")
                del profile[p - 1:p + 1]
            else:
                lines.append(f"x {p} {rng.choice('ou')}")
                profile[p - 1], profile[p] = profile[p], profile[p - 1]
                made += 1
            if not profile:
                break
        if not profile and len(lines) == events and made == crossings:
            return lines
    raise ValueError(f"no closed word of {events} events with {crossings} crossings")


# -- workloads -------------------------------------------------------------


def braid_eval(seed: int) -> list:
    rng = random.Random(f"braid-eval/{seed}")
    cases = []
    for n in TORUS_BAND:
        cases.append(Case(f"torus-2-{n}", "eval", {"in.mw": braid_doc(2, [1] * n)},
                          {"kind": "torus", "n": n}))
    for strands in (3, 4):
        for i in range(CLOSURES_PER_STRANDS):
            gens = random_generators(rng, strands, CLOSURE_LENGTH)
            cases.append(Case(f"closure-{strands}-{i}", "eval",
                              {"in.mw": braid_doc(strands, gens)},
                              {"kind": "closure", "writhe": sum(1 if g > 0 else -1 for g in gens)}))
    return cases


def split_coproduct(seed: int) -> list:
    rng = random.Random(f"split-coproduct/{seed}")
    cases = []
    for k in UNLINK_BAND:
        for label, orients in (("ccw", ">" * k), ("cw", "<" * k),
                               ("mixed", alternating(rng.choice("><"), k))):
            cases.append(Case(f"unlink-{k}-{label}", "coproduct",
                              {"in.mw": unlink_doc(orients)},
                              {"kind": "unlink", "k": k, "ccw": orients == ">" * k}))
    for knot, length in (("trefoil", 3), ("hopf", 2)):
        for j in UNION_UNKNOTS:
            n = length * rng.choice((1, -1))
            circles = []
            for o in alternating(rng.choice("><"), j):
                circles += circle_lines(o)
            body = knot_lines(2, [1 if n > 0 else -1] * length)
            lines = circles + body if rng.random() < 0.5 else body + circles
            doc = "surface plane\n" + "\n".join(lines) + "\n"
            cases.append(Case(f"{knot}-{'right' if n > 0 else 'left'}+{j}", "coproduct",
                              {"in.mw": doc}, {"kind": "union", "n": n, "unknots": j}))
    cases.append(Case(f"unlink-{LONG_UNLINK}-ccw", "coproduct",
                      {"in.mw": unlink_doc(">" * LONG_UNLINK)},
                      {"kind": "unlink", "k": LONG_UNLINK, "ccw": True}))
    return cases


def verify_fuzz(seed: int) -> list:
    rng = random.Random(f"verify-fuzz/{seed}")
    cases = []
    for i in range(CORPORA):
        files = {}
        for w in range(PLANE_WORDS):
            lines = random_plane_lines(rng, PLANE_EVENTS, PLANE_CROSSINGS)
            files[f"plane-{w}.mw"] = "surface plane\n" + "\n".join(lines) + "\n"
        gens = random_generators(rng, CLOSURE_STRANDS, VERIFY_CLOSURE_LENGTH)
        files["closure.mw"] = braid_doc(CLOSURE_STRANDS, gens)
        for framing in ("blackboard", "radial"):
            files[f"annulus-{framing}.mw"] = braid_doc(1, [], close=False, framing=framing)
        cases.append(Case(f"corpus-{i}", "verify", files,
                          {"kind": "verify", "plane": PLANE_WORDS + 1, "framings": 2}))
    return cases


WORKLOADS = {
    "braid-eval": braid_eval,
    "split-coproduct": split_coproduct,
    "verify-fuzz": verify_fuzz,
}


# The warm-up call of each workload, the same for every seed.
WARMUP = {
    "braid-eval": Case("warmup", "eval", {"in.mw": braid_doc(2, [1] * 20)}),
    "split-coproduct": Case("warmup", "coproduct", {"in.mw": unlink_doc("><<>><<>")}),
    "verify-fuzz": Case("warmup", "verify", {
        "plane-0.mw": unlink_doc(">"),
        "closure.mw": braid_doc(2, [1, 1, 1]),
        "annulus-blackboard.mw": braid_doc(1, [], close=False, framing="blackboard"),
        "annulus-radial.mw": braid_doc(1, [], close=False, framing="radial"),
    }),
}
