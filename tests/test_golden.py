"""Golden outputs: exact CLI results on the builtin corpus, byte for byte.

`tests/regressions/golden-builtin.txt` holds, for every builtin word, the
pretty `eval`, `coproduct`, `iterate` and `jaeger --trace` results and the
JSON `eval` result (exit code, stdout and stderr of each), followed by
`verify all --corpus builtin`. An edit that changes any exact output
fails here. Rewrite the file (`python tests/test_golden.py`) only for a
change whose outputs are meant to differ, and say so where it lands.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from skeinlab import cli, corpus

GOLDEN = Path(__file__).parent / "regressions" / "golden-builtin.txt"

COMMANDS = (
    ("eval",),
    ("eval", "--format", "json"),
    ("coproduct",),
    ("iterate",),
    ("jaeger", "--trace"),
)


def _run(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def render_golden() -> str:
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in corpus.BUILTIN_SOURCES.items():
            path = Path(tmp) / f"{name}.mw"
            path.write_text(source, encoding="utf-8")
            for command in COMMANDS:
                argv = [command[0], str(path), *command[1:]]
                label = " ".join([command[0], name, *command[1:]])
                blocks.append(f"=== {label}\n{_run(argv)}")
    argv = ["verify", "all", "--corpus", "builtin"]
    blocks.append(f"=== {' '.join(argv)}\n{_run(argv)}")
    return "".join(blocks)


def test_builtin_outputs_match_golden_file():
    assert render_golden() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(), encoding="utf-8")
