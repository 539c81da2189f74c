"""The mutation gate's deadline and the order of each mutant's test files,
read without the workflow file."""

from mutants import BOUND_FACTOR, ROOT, cannot_start, files_in_order, gate

MUTANTS = (("first", "f", "a", "b"), ("second", "f", "a", "b"), ("third", "f", "a", "b"))


def test_a_mutant_starts_only_while_one_run_at_the_bound_fits_the_job():
    assert BOUND_FACTOR == 2
    # 1750 s spent and a run of up to 50 s fill 30 minutes exactly.
    assert cannot_start(1750.0, 50.0, 30) is None
    assert cannot_start(1751.0, 50.0, 30) == (
        "1751 s spent and a run of up to 50.0 s take up to 1801 s, over the job's 30 minutes")


def test_gate_names_every_mutant_that_did_not_run(capsys):
    # Each fake run takes 20 s of a 1-minute job with a 30 s bound: the
    # first starts at 0 s, the second at 20 s (ending by 50 s), and the
    # third, at 40 s, would not fit, so it does not start.
    now = [0.0]

    def run(file, old, new, bound):
        now[0] += 20.0
        return "killed"

    assert gate(MUTANTS, 30.0, 1, 0.0, run, lambda: now[0]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("killed") and lines[0].endswith("first")
    assert lines[1].startswith("killed") and lines[1].endswith("second")
    assert lines[2] == ("deadline: 40 s spent and a run of up to 30.0 s take up to 70 s,"
                        " over the job's 1 minutes; 1 of 3 mutants did not run")
    assert lines[3].startswith("not run") and lines[3].endswith("third")
    assert len(lines) == 4


def test_gate_passes_only_when_every_mutant_ran_and_was_killed(capsys):
    now = [0.0]
    verdicts = iter(["killed", "killed (timeout)", "killed"])

    def run(file, old, new, bound):
        now[0] += 1.0
        return next(verdicts)

    assert gate(MUTANTS, 30.0, 30, 0.0, run, lambda: now[0]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3 of 3 mutants killed"
    verdicts = iter(["killed", "SURVIVED", "killed"])
    assert gate(MUTANTS, 30.0, 30, 0.0, run, lambda: now[0]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "2 of 3 mutants killed"


def test_a_mutant_runs_its_module_test_file_first_then_every_other_file_once():
    every = sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("test_*.py"))
    words = files_in_order("src/kleinverify/words.py")
    assert words[0] == "tests/test_words.py"
    assert sorted(words) == every and words[1:] == [f for f in every if f != "tests/test_words.py"]
    # The longest test-file name that starts the module's name.
    assert files_in_order("src/kleinverify/cli_commands.py")[0] == "tests/test_cli.py"
    assert files_in_order("src/kleinverify/cli.py")[0] == "tests/test_cli.py"
    # No tests/test_walks.py: collection order, unchanged.
    assert files_in_order("src/kleinverify/walks.py") == every
