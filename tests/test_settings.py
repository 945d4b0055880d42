"""The suite's own pytest settings."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_is_reported_as_a_failure(pytester):
    # under the repository's settings (every warning an error), a falsified
    # hypothesis property once stopped the run with INTERNALERROR, so the
    # failure was not listed and the tests after it never ran
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    path = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(x):
            assert x < 5

        def test_after_it():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", path)
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
