"""The test run itself: a failing property test must not stop the suite."""

from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_failing_given_test_does_not_stop_the_run(pytester):
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
