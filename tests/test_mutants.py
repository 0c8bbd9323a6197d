"""The mutants of ``tests/mutants.py`` still apply to the package's source.

The check itself runs apart from tier-1 (one test run per mutant); these
tests only apply each mutant, so a change to ``src/`` that moves a mutant's
text shows here first.
"""

import pytest

import mutants


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_each_mutant_changes_one_token_of_its_function(name):
    module, qualname, text, mutated, files = mutants.MUTANTS[name]
    source = (mutants.PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert mutants.mutate(source, qualname, text, mutated) != source
    assert files and all((mutants.REPO / path).is_file() for path in files)


def test_a_mutant_must_be_one_token_found_once_in_its_function():
    source = "def f(x):\n    return x < 1\n\n\ndef g(x):\n    return x < 1\n"
    assert mutants.mutate(source, "g", "x < 1", "x <= 1").endswith("return x <= 1\n")
    with pytest.raises(ValueError, match="single-token"):
        mutants.mutate(source, "f", "x < 1", "x <= 2")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.mutate(source, "f", "x > 1", "x >= 1")
