"""The mutant catalogue in `mutants.py` stays applicable: each entry's old
text occurs exactly once in its file."""

from mutants import MUTANTS, REPO


def test_every_mutant_applies_exactly_once():
    for mutant in MUTANTS:
        text = (REPO / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant
        assert mutant.new != mutant.old and mutant.breaks, mutant
