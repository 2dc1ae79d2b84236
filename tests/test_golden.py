"""Golden outputs: exact CLI results, byte for byte.

`tests/regressions/golden-builtin.txt` holds, for every builtin word, the
pretty `eval`, `coproduct`, `iterate` and `jaeger --trace` results and the
JSON `eval` result (exit code, stdout and stderr of each), followed by
`verify all --corpus builtin`.

`tests/regressions/golden-multicolour.txt` covers the multi-colour path:
pretty, JSON and specialized `eval` on words with two and three colours
(mixed crossings, a red-only word, colours 1 and 3 with 2 absent), then
`jaeger --trace` on ten seeded random words.

An edit that changes any exact output fails here. Rewrite the files
(`python tests/test_golden.py`) only for a change whose outputs are meant
to differ, and say so where it lands.
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

from skeinlab import cli, corpus, textio

from conftest import random_word

GOLDEN = Path(__file__).parent / "regressions" / "golden-builtin.txt"
GOLDEN_MULTI = Path(__file__).parent / "regressions" / "golden-multicolour.txt"

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


def _run(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


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


def test_builtin_outputs_match_golden_file():
    assert render_golden() == GOLDEN.read_text(encoding="utf-8")


def test_multicolour_outputs_match_golden_file():
    assert render_multicolour_golden() == GOLDEN_MULTI.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(), encoding="utf-8")
    GOLDEN_MULTI.write_text(render_multicolour_golden(), encoding="utf-8")
