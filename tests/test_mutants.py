"""The construction mutants of tests/mutants.txt, as CI's loop reads them.

Each line is FILE|TEST|NAME|SED: CI applies the sed expression to a copy
of FILE and requires TEST to fail. Here each expression is applied to the
file as it is, and must change it in one place, at most one line wide (a
line, or the insertion next to the line it matched): a pattern that
matches nothing mutates nothing, and one that matches twice mutates more
than its name says.
"""
import difflib
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = [line.split("|", 3) for line in
           (ROOT / "tests" / "mutants.txt").read_text().splitlines()]


def test_every_mutant_has_four_fields_and_a_unique_name():
    assert all(len(fields) == 4 for fields in MUTANTS)
    names = [name for _, _, name, _ in MUTANTS]
    assert len(set(names)) == len(names) >= 75


@pytest.mark.parametrize("file, test, name, expr", MUTANTS,
                         ids=[fields[2] for fields in MUTANTS])
def test_a_mutant_changes_one_line_of_its_file(file, test, name, expr):
    assert (ROOT / test).is_file()
    before = (ROOT / file).read_text().splitlines()
    after = subprocess.run(["sed", expr, str(ROOT / file)], check=True,
                           capture_output=True, text=True).stdout.splitlines()
    changes = [(i1, i2) for tag, i1, i2, _, _ in difflib.SequenceMatcher(
        None, before, after, autojunk=False).get_opcodes() if tag != "equal"]
    assert len(changes) == 1 and changes[0][1] - changes[0][0] <= 1, changes
