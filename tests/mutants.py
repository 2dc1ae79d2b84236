"""A catalogue of mutants of skeinlab, and a runner that shows which tests
catch each one.

Each mutant is one exact edit of one source file. Run

    python tests/mutants.py [INDEX ...]

from any directory to try every mutant, or only those at the given
0-based indices. For each mutant in turn the runner copies `src/`,
`tests/`, `bench/` and `pyproject.toml` into a fresh temporary directory,
never touching the checkout, and refuses the mutant unless its old text
occurs exactly once there. It then runs the Tier-1 suite in the copy with
one pytest process and prints the failing tests, grouped by file, and the
run's time. `tests/test_mutants.py` is left out of those runs, since it
checks this catalogue against the unmutated tree; in the checkout it
keeps every entry applicable.

pytest does not collect this file. A mutant caught by no test is a gap
in the tests, unless it is equivalent: then it does not belong here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench")
SELF_CHECK = "tests/test_mutants.py"
TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str    # relative to the repository root
    old: str     # occurs exactly once in the file
    new: str
    breaks: str  # what the edit gets wrong


MUTANTS = [
    Mutant("src/skeinlab/coproduct.py", "(cr > cl)", "(cr >= cl)",
           "the box walk also cuts over-left crossings with equal labels"),
    Mutant("src/skeinlab/coproduct.py", "w = 1 if orientation == UP else -1",
           "w = -1 if orientation == UP else 1",
           "the blackboard winding has the wrong sign"),
    Mutant("src/skeinlab/coproduct.py", "return (0, 1)", "return (0, 0)",
           "a right-moving cup of label 1 loses its dressing"),
    Mutant("src/skeinlab/coproduct.py", "sign if tag == OVER_LEFT else -sign",
           "-sign if tag == OVER_LEFT else sign",
           "the box walk's cutting smoothing has the wrong sign"),
    Mutant("src/skeinlab/coproduct.py",
           "for k in (2, 3):\n                power = power * split",
           "for k in (2, 3):\n                power = split * split",
           "annulus `mult` compares Δ(w^3) with Δ(w)^2"),
    Mutant("src/skeinlab/jaeger.py", "and vb > va", "and vb >= va",
           "the state sum admits a cut with equal labels"),
    Mutant("src/skeinlab/jaeger.py",
           "exps = [sum(rots[:j - 1]) - sum(rots[j:])",
           "exps = [sum(rots[j:]) - sum(rots[:j - 1])",
           "the state sum's rotation correction has negated exponents"),
    Mutant("src/skeinlab/engine.py", "c *= sign", "c *= -sign",
           "the skein relation's smoothing term has the wrong sign"),
    Mutant("src/skeinlab/engine.py", "if len(cuts) < 3:", "if True:",
           "the engine never cuts a split word into its blocks"),
    Mutant("src/skeinlab/scalars.py", "if any(sums.values()):", "if True:",
           "no Scalar is reduced to canonical form"),
    Mutant("src/skeinlab/scalars.py", "_s_power_terms(den - den_pow, arity)",
           "_s_power_terms(den - den_pow - 1, arity)",
           "a summand below the largest denominator is lifted one power short"),
]


def apply(root: Path, mutant: Mutant) -> None:
    """Make the mutant's edit in the tree at root, or raise ValueError
    unless its old text occurs exactly once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.file}: old text occurs {found} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> dict:
    """{test file: [failing test names]} for the Tier-1 suite on a mutated
    copy of the tree; a run that times out is reported under `timeout`."""
    with tempfile.TemporaryDirectory(prefix="skeinlab-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            shutil.copytree(REPO / name, root / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        shutil.copy2(REPO / "pyproject.toml", root / "pyproject.toml")
        apply(root, mutant)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", f"--ignore={SELF_CHECK}"]
        try:
            out = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                                 text=True, timeout=TIMEOUT_S).stdout
        except subprocess.TimeoutExpired:
            return {"timeout": [f"no result after {TIMEOUT_S} s"]}
    failed: dict = {}
    for line in out.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            node = line.split(" ", 1)[1].split(" - ", 1)[0]
            file, _, test = node.partition("::")
            failed.setdefault(file, []).append(test or "(collection)")
    return failed


def main(argv: list) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    for i in chosen:
        mutant = MUTANTS[i]
        print(f"[{i}] {mutant.file}: {mutant.old!r} -> {mutant.new!r}\n"
              f"    breaks: {mutant.breaks}", flush=True)
        t0 = time.perf_counter()
        try:
            failed = run(mutant)
        except ValueError as exc:
            print(f"    refused: {exc}", flush=True)
            continue
        total = sum(map(len, failed.values()))
        print(f"    caught by {total} test{'s' * (total != 1)} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
        for file, tests in sorted(failed.items()):
            print(f"      {file} ({len(tests)}): {', '.join(tests)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
