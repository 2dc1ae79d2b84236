"""Golden outputs: exact CLI results, byte for byte.

`tests/regressions/golden-builtin.txt` holds, for every builtin word, the
pretty `eval`, `coproduct`, `iterate` and `jaeger --trace` results and the
JSON `eval` result (exit code, stdout and stderr of each), followed by
`verify all --corpus builtin`.

`tests/regressions/golden-multicolour.txt` covers the multi-colour path:
pretty, JSON and specialized `eval` on words with two and three colours
(mixed crossings, a red-only word, colours 1 and 3 with 2 absent), then
`jaeger --trace` on ten seeded random words.

`tests/regressions/golden-coproduct.txt` holds one line per box-walk call:
its arguments, exit code and the SHA-256 of its stdout and of its stderr.
The calls are pretty and JSON `coproduct` on unlinks of 2-10 circles in
three orientation patterns, on the trefoil and the Hopf link with 0-4
unknots beside them, and on the two-strand annulus profiles `^ ^` and
`^ v` in both framings, then `iterate --slots 3` on two small words.

An edit that changes any exact output fails here. Rewrite the files
(`python tests/test_golden.py`) only for a change whose outputs are meant
to differ, and say so where it lands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

from skeinlab import cli, corpus, textio

from conftest import random_word

GOLDEN = Path(__file__).parent / "regressions" / "golden-builtin.txt"
GOLDEN_MULTI = Path(__file__).parent / "regressions" / "golden-multicolour.txt"
GOLDEN_COPRODUCT = Path(__file__).parent / "regressions" / "golden-coproduct.txt"

COMMANDS = (
    ("eval",),
    ("eval", "--format", "json"),
    ("coproduct",),
    ("iterate",),
    ("jaeger", "--trace"),
)

# name -> (source, --t values: one integer per colour slot)
MULTI_COLOUR_SOURCES = {
    "hopf-green-red": (
        "cup 1 >\ncup 2 > r\nx 3 o\nx 3 o\ncap 2 <\ncap 1 <\n", "2,3"),
    "trefoil-red": (
        "cup 1 > r\ncup 2 > r\nx 3 o\nx 3 o\nx 3 o\ncap 2 <\ncap 1 <\n", "2"),
    "unknot-green-trefoil-violet": (
        "cup 1 >\ncup 2 > v\ncup 3 > v\nx 4 o\nx 4 o\nx 4 o\nx 5 o\nx 5 o\n"
        "cap 3 <\ncap 2 <\ncap 1 <\n", "2,1,3"),
    "chain-three-colours": (
        "cup 1 >\ncup 2 > r\ncup 3 > v\ncup 4 > v\nx 5 o\nx 5 o\nx 5 o\n"
        "x 6 o\nx 6 o\nx 7 o\nx 7 o\nx 7 u\nx 7 o\n"
        "cap 4 <\ncap 3 <\ncap 2 <\ncap 1 <\n", "2,3,4"),
    "random-three-colours": (
        "cup 1 <\ncup 1 > r\ncap 1 <\ncup 3 > v\ncup 1 <\ncap 3 >\ncup 2 > r\n"
        "x 4 u\ncup 7 > v\nx 2 o\ncap 7 <\nx 4 u\nx 1 o\nx 1 o\ncap 5 <\n"
        "cap 2 >\ncap 1 >\n", "1,2,3"),
}

JAEGER_SEEDS = range(10)


def _circles(orients: str) -> str:
    return "".join(f"cup 1 {o}\ncap 1 {'<' if o == '>' else '>'}\n" for o in orients)


def _coproduct_sources() -> dict:
    """name -> source of every box-walk golden input."""
    sources = {}
    for k in range(2, 11):
        for pattern, orients in (("ccw", ">" * k), ("cw", "<" * k),
                                 ("alt", "><" * (k // 2) + ">" * (k % 2))):
            sources[f"unlink-{pattern}-{k}"] = _circles(orients)
    knots = {"trefoil": "x 3 o\n" * 3, "hopf": "x 3 o\n" * 2}
    for knot, crossings in knots.items():
        for extra in range(5):
            sources[f"{knot}+{extra}"] = (_circles(">" * extra)
                                          + "cup 1 >\ncup 2 >\n" + crossings
                                          + "cap 2 <\ncap 1 <\n")
    for profile in ("^g ^g", "^g vg"):
        for framing in ("radial", "blackboard"):
            name = f"annulus-{profile.replace(' ', '')}-{framing}"
            sources[name] = (f"surface annulus\nframing {framing}\n"
                             f"profile {profile}\n")
    return sources


ITERATED = ("hopf+0", "unlink-alt-2")


def _capture(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _run(argv: list) -> str:
    rc, out, err = _capture(argv)
    return f"exit {rc}\n--- stdout\n{out}--- stderr\n{err}"


def _blocks(tmp: str, name: str, source: str, commands) -> list:
    path = Path(tmp) / f"{name}.mw"
    path.write_text(source, encoding="utf-8")
    blocks = []
    for command in commands:
        argv = [command[0], str(path), *command[1:]]
        label = " ".join([command[0], name, *command[1:]])
        blocks.append(f"=== {label}\n{_run(argv)}")
    return blocks


def render_golden() -> str:
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in corpus.BUILTIN_SOURCES.items():
            blocks += _blocks(tmp, name, source, COMMANDS)
    argv = ["verify", "all", "--corpus", "builtin"]
    blocks.append(f"=== {' '.join(argv)}\n{_run(argv)}")
    return "".join(blocks)


def render_multicolour_golden() -> str:
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (source, t) in MULTI_COLOUR_SOURCES.items():
            commands = (("eval",), ("eval", "--format", "json"), ("eval", "--t", t))
            blocks += _blocks(tmp, name, source, commands)
        for seed in JAEGER_SEEDS:
            source = textio.render_morse(random_word(random.Random(seed)))
            blocks += _blocks(tmp, f"random-{seed}", source, (("jaeger", "--trace"),))
    return "".join(blocks)


def render_coproduct_golden() -> str:
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        sources = _coproduct_sources()
        calls = [(name, ("coproduct", *fmt)) for name in sources
                 for fmt in (("--format", "json"), ())]
        calls += [(name, ("iterate", "--slots", "3")) for name in ITERATED]
        for name, command in calls:
            path = Path(tmp) / f"{name}.mw"
            path.write_text(sources[name], encoding="utf-8")
            rc, out, err = _capture([command[0], str(path), *command[1:]])
            label = " ".join([command[0], name, *command[1:]])
            lines.append(f"{label}  exit {rc}  stdout {sha(out)}  stderr {sha(err)}\n")
    return "".join(lines)


def test_builtin_outputs_match_golden_file():
    assert render_golden() == GOLDEN.read_text(encoding="utf-8")


def test_multicolour_outputs_match_golden_file():
    assert render_multicolour_golden() == GOLDEN_MULTI.read_text(encoding="utf-8")


def test_coproduct_outputs_match_golden_digests():
    assert render_coproduct_golden() == GOLDEN_COPRODUCT.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(), encoding="utf-8")
    GOLDEN_MULTI.write_text(render_multicolour_golden(), encoding="utf-8")
    GOLDEN_COPRODUCT.write_text(render_coproduct_golden(), encoding="utf-8")
