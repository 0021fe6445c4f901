"""The test run itself, and the docs it keeps in step with the code."""

from pathlib import Path

from qwalklab import cli

CONFTEST = Path(__file__).with_name("conftest.py")
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_option_table_matches_the_parser():
    # the README's "| Command | Options |" table: one row per command
    text = README.read_text()
    table = text[text.index("| Command | Options |"):].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        command, options = (cell.strip() for cell in row.strip("|").split("|"))
        documented[command.strip("`")] = options.strip("`").split()
    parsed = {name: ["--" + key.replace("_", "-") for key in keys]
              for name, (_, _, keys) in cli._COMMANDS.items()}
    assert documented == parsed
