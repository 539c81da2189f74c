"""The mutation gate's budget arithmetic, read without the workflow file."""

from mutants import BOUND_FACTOR, budget


def test_mutant_bound_is_twice_the_unedited_suite_and_fits_the_job():
    assert BOUND_FACTOR == 2
    assert budget(24.0, 20.0, 27, 30) == (40.0, None)
    # 100 s spent and 34 runs at 50 s fill 30 minutes exactly; a 35th run
    # does not fit.
    assert budget(100.0, 25.0, 34, 30) == (50.0, None)
    assert budget(100.0, 25.0, 35, 30) == (
        50.0, "100 s spent and 35 runs at 50.0 s take up to 1850 s, over the job's 30 minutes")
