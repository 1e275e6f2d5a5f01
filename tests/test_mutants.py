import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.file}:{m.old.strip()[:40]}")
def test_each_mutant_changes_one_text_and_names_existing_tests(mutant):
    # the registry follows the code: its run (`python tests/mutants.py`) fails
    # on an old text that is gone or ambiguous, and so does this check
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node
