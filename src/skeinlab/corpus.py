"""Built-in diagram corpus used by the verification commands and tests."""

from __future__ import annotations

import os
import sys

from . import textio
from .diagrams import Word

BUILTIN_SOURCES = {
    "unknot-ccw": "surface plane\ncup 1 >\ncap 1 <\n",
    "unknot-cw": "surface plane\ncup 1 <\ncap 1 >\n",
    "kink-positive": "surface plane\nbraid 2: 1 ; close\n",
    "kink-negative": "surface plane\nbraid 2: -1 ; close\n",
    "hopf": "surface plane\nbraid 2: 1 1 ; close\n",
    "trefoil-right": "surface plane\nbraid 2: 1 1 1 ; close\n",
    "trefoil-left": "surface plane\nbraid 2: -1 -1 -1 ; close\n",
    "figure-eight": "surface plane\nbraid 3: 1 -2 1 -2 ; close\n",
    "unlink-2": "surface plane\ncup 1 >\ncap 1 <\ncup 1 >\ncap 1 <\n",
    "annulus-core-radial": "surface annulus\nframing radial\nprofile ^g\n",
    "annulus-core-blackboard": "surface annulus\nframing blackboard\nprofile ^g\n",
    "annulus-core-sq-radial": "surface annulus\nframing radial\nprofile ^g ^g\n",
    "annulus-core-sq-blackboard": "surface annulus\nframing blackboard\nprofile ^g ^g\n",
}


class CorpusError(ValueError):
    """A diagram file that cannot be read, or a corpus file that does not
    parse; the message names the file."""


def read_text(path: str) -> str:
    """The text of a diagram file, or of stdin for "-"."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise CorpusError(f"cannot read {path}: {err}") from None


def load_builtin() -> list:
    return [(name, textio.parse_morse(src)) for name, src in BUILTIN_SOURCES.items()]


def _load_file(path: str) -> Word:
    text = read_text(path)
    try:
        return textio.parse_morse(text)
    except textio.DiagnosticError as err:
        raise CorpusError(f"{path}: {err}") from None


def load_path(path: str) -> list:
    """A corpus from a single .mw file or a directory of them."""
    if not os.path.isdir(path):
        name = os.path.splitext(os.path.basename(path))[0]
        return [(name, _load_file(path))]
    try:
        names = sorted(fn for fn in os.listdir(path) if fn.endswith(".mw"))
    except OSError as err:
        raise CorpusError(f"cannot read {path}: {err}") from None
    return [(fn[:-3], _load_file(os.path.join(path, fn))) for fn in names]


def builtin_word(name: str) -> Word:
    return textio.parse_morse(BUILTIN_SOURCES[name])
