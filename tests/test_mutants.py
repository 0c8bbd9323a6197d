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
    assert files and all((mutants.REPO / test.split("::")[0]).is_file() for test in files)


def test_a_mutant_must_be_one_token_found_once_in_its_function():
    # or a reordering of the tokens of its text
    source = "def f(x):\n    return x < 1\n\n\ndef g(x):\n    return x < 1\n"
    assert mutants.mutate(source, "g", "x < 1", "x <= 1").endswith("return x <= 1\n")
    assert mutants.mutate(source, "g", "x < 1", "1 < x").endswith("return 1 < x\n")
    with pytest.raises(ValueError, match="single-token"):
        mutants.mutate(source, "f", "x < 1", "x <= 2")
    with pytest.raises(ValueError, match="nor a reordering"):
        mutants.mutate(source, "f", "x < 1", "1 > x")
    with pytest.raises(ValueError, match="nor a reordering"):
        mutants.mutate(source, "f", "x < 1", "x  <  1")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.mutate(source, "f", "x > 1", "x >= 1")


def test_a_call_swap_keeps_some_of_the_calls_arguments():
    source = "import math\n\n\ndef f(x):\n    return max(x, 0.0)\n"
    assert mutants.mutate(source, "f", "max(x, 0.0)", "math.fabs(x)").endswith(
        "return math.fabs(x)\n")
    # a new argument, a keyword, the same function, no argument, or a text
    # that is no call is not a swap
    for text, mutated in (("max(x, 0.0)", "abs(x + 1)"), ("max(x, 0.0)", "round(x, ndigits=2)"),
                          ("max(x, 0.0)", "max(x)"), ("max(x, 0.0)", "list()"),
                          ("x, 0.0", "x, 1.0, 2.0")):
        with pytest.raises(ValueError, match="nor a call swap"):
            mutants.mutate(source, "f", text, mutated)


def test_the_kill_report_reads_a_node_id_with_spaces_in_full():
    node = ("tests/test_cli.py::test_mc_output_is_pinned[0.01-1-deflection-SNR gain (QI/CI) = "
            "98.4056 +/- 22 (QI 0.013303, CI 0.000135185, 1000000 trials, seed 1)\\n"
            "analytic 1 + 1/N_s = 101, z = -0.118\\n]")
    summary = "... [100%]\n=== short test summary info ===\nFAILED {} - assert 1 == 2\n"
    assert mutants.first_failure(summary.format(node)) == node
    # without room for the message pytest prints the id alone
    assert mutants.first_failure(f"FAILED {node}\nERROR tests/test_cli.py::x\n") == node
    assert mutants.first_failure("ERROR tests/test_x.py - ImportError: a - b\n") == (
        "tests/test_x.py")
    assert mutants.first_failure("1 passed in 0.01s\n") == ""


def test_named_mutants_run_alone_after_their_own_test_files_pass(monkeypatch, capsys):
    runs = []

    def run_tests(package, tests):
        # the unchanged copy passes, and each mutant fails its first test
        runs.append(tests)
        return (0, "") if len(runs) == 1 else (1, tests[0])

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    names = ["sweep_writes_zero_for_no_range", "smallest_cutoff_accepts_the_tolerance"]
    assert mutants.main(names) == 0
    assert runs == [("tests/test_cli.py", "tests/test_quantum_states.py"),
                    *(mutants.MUTANTS[name][4] for name in names)]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [*names, "2 of 2 mutants killed"]
    # with no name, every mutant runs, after every test file they name
    runs.clear()
    assert mutants.main([]) == 0
    files = {test.split("::")[0] for *_, tests in mutants.MUTANTS.values() for test in tests}
    assert runs == [tuple(sorted(files)), *(tests for *_, tests in mutants.MUTANTS.values())]
    assert capsys.readouterr().out.endswith(
        f"{len(mutants.MUTANTS)} of {len(mutants.MUTANTS)} mutants killed\n")


def test_an_unknown_mutant_name_exits_2_before_any_test_runs(monkeypatch, capsys):
    monkeypatch.setattr(mutants, "run_tests", lambda package, tests: pytest.fail("ran tests"))
    assert mutants.main(["sweep_writes_zero_for_no_range", "no_such", "nor_this"]) == 2
    assert capsys.readouterr() == ("", "no such mutant: no_such nor_this\n")
