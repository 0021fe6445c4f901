import warnings

pytest_plugins = ["pytester"]

# When a @given test fails, hypothesis imports its patch writer, which imports
# libcst, which warns a DeprecationWarning on import; filterwarnings = error
# turns that into an INTERNALERROR that stops the whole run.  Import it here,
# with the warning silenced, so a failing property test fails like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(RESULTS):
        terminalreporter.write_line(line)
