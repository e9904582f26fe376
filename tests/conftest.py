"""Session setup shared by the test modules."""

import warnings

# When a hypothesis test fails, hypothesis writes the failing example as a
# patch through libcst, whose import warns that mypy_extensions.TypedDict is
# deprecated.  Under ``-W error`` that warning aborts the session with an
# INTERNALERROR in place of the test's report, so libcst is imported once
# here with that warning silenced.  The filter covers this import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # hypothesis then writes no patch, and nothing warns
        pass
