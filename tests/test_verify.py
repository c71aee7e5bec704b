import pytest

from tailorder import verify


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_every_check_of_the_suite_passes(suite):
    outcomes = verify.run_suite(suite)
    assert outcomes
    assert [o for o in outcomes if not o.passed] == []

